// MLEM baseline tests: multiplicative updates, non-negativity, residual
// decrease, convergence, and the q8-texture precision ablation invariants.
#include <gtest/gtest.h>

#include "backproj/kernel.hpp"
#include "iterative/mlem.hpp"
#include "phantom/shepp_logan.hpp"

namespace xct::iterative {
namespace {

CbctGeometry geo()
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = 24;
    g.nu = 32;
    g.nv = 32;
    g.du = 1.2;
    g.dv = 1.2;
    g.vol = {16, 16, 16};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x) * 0.7;
    return g;
}

TEST(Mlem, ResidualDecreases)
{
    const CbctGeometry g = geo();
    const std::vector<phantom::Ellipsoid> ph{{1.0, 3.0, 3.0, 3.0, 0.0, 0.0, 0.0, 0.0}};
    const ProjectionStack b = phantom::forward_project(ph, g);
    MlemConfig cfg;
    cfg.iterations = 10;
    const MlemResult r = reconstruct_mlem(g, b, cfg);
    ASSERT_EQ(r.residuals.size(), 10u);
    EXPECT_LT(r.residuals.back(), r.residuals.front() * 0.5);
}

TEST(Mlem, StaysNonNegative)
{
    const CbctGeometry g = geo();
    const std::vector<phantom::Ellipsoid> ph{
        {1.0, 3.0, 3.0, 3.0, 0.0, 0.0, 0.0, 0.0},
        {-0.7, 1.5, 1.5, 1.5, 0.0, 0.0, 0.0, 0.0},  // low-density core
    };
    const ProjectionStack b = phantom::forward_project(ph, g);
    MlemConfig cfg;
    cfg.iterations = 12;
    const MlemResult r = reconstruct_mlem(g, b, cfg);
    for (float v : r.volume.span()) ASSERT_GE(v, 0.0f);
}

TEST(Mlem, ConvergesTowardsPhantom)
{
    const CbctGeometry g = geo();
    const std::vector<phantom::Ellipsoid> ph{{1.0, 3.0, 3.0, 3.0, 0.0, 0.0, 0.0, 0.0}};
    const ProjectionStack b = phantom::forward_project(ph, g);
    MlemConfig cfg;
    cfg.iterations = 30;
    const MlemResult r = reconstruct_mlem(g, b, cfg);
    EXPECT_NEAR(r.volume.at(8, 8, 8), 1.0f, 0.25f);
    EXPECT_NEAR(r.volume.at(1, 1, 1), 0.0f, 0.1f);
}

TEST(Mlem, RejectsNegativeProjections)
{
    const CbctGeometry g = geo();
    ProjectionStack b(g.num_proj, g.nv, g.nu, -1.0f);
    EXPECT_THROW(reconstruct_mlem(g, b), std::invalid_argument);
}

TEST(Mlem, CallbackFires)
{
    const CbctGeometry g = geo();
    const ProjectionStack b(g.num_proj, g.nv, g.nu, 0.2f);
    MlemConfig cfg;
    cfg.iterations = 3;
    index_t n = 0;
    cfg.on_iteration = [&](index_t, double) { ++n; };
    reconstruct_mlem(g, b, cfg);
    EXPECT_EQ(n, 3);
}

// --- 8-bit texture precision (shared here to avoid another binary) ------

TEST(QuantizedTexture, DequantisesWithinOneStep)
{
    sim::Device dev(1 << 20);
    sim::QuantizedTexture3 tex(dev, 4, 1, 1, 0.0f, 10.0f);
    const std::vector<float> p{0.0f, 2.5f, 7.5f, 10.0f};
    tex.copy_planes(p, 0, 1);
    const float step = 10.0f / 255.0f;
    for (index_t i = 0; i < 4; ++i)
        EXPECT_NEAR(tex.fetch(i, 0, 0), p[static_cast<std::size_t>(i)], step);
}

TEST(QuantizedTexture, ClampsOutOfRangeValues)
{
    sim::Device dev(1 << 20);
    sim::QuantizedTexture3 tex(dev, 2, 1, 1, 0.0f, 1.0f);
    const std::vector<float> p{-5.0f, 5.0f};
    tex.copy_planes(p, 0, 1);
    EXPECT_FLOAT_EQ(tex.fetch(0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(tex.fetch(1, 0, 0), 1.0f);
}

TEST(QuantizedTexture, UsesOneBytePerTexel)
{
    sim::Device dev(1000);
    sim::QuantizedTexture3 tex(dev, 10, 10, 10, 0.0f, 1.0f);
    EXPECT_EQ(dev.used(), 1000u);  // vs 4000 for fp32
}

TEST(QuantizedTexture, Q8KernelApproximatesFp32Kernel)
{
    const CbctGeometry g = geo();
    const auto mats = projection_matrices(g);
    ProjectionStack p(g.num_proj, g.nv, g.nu);
    for (index_t i = 0; i < p.count(); ++i)
        p.span()[static_cast<std::size_t>(i)] =
            0.5f + 0.5f * std::sin(static_cast<float>(i) * 0.01f);

    auto fill = [&](auto& tex) {
        std::vector<float> buf(static_cast<std::size_t>(g.nu * g.num_proj));
        for (index_t v = 0; v < g.nv; ++v) {
            for (index_t s = 0; s < g.num_proj; ++s) {
                const auto row = p.row(s, v);
                std::copy(row.begin(), row.end(),
                          buf.begin() + static_cast<std::ptrdiff_t>(s * g.nu));
            }
            tex.copy_planes(buf, v, 1);
        }
    };

    sim::Device dev(64u << 20);
    sim::Texture3 tex32(dev, g.nu, g.num_proj, g.nv);
    fill(tex32);
    sim::QuantizedTexture3 tex8(dev, g.nu, g.num_proj, g.nv, 0.0f, 1.0f);
    fill(tex8);

    Volume v32(g.vol), v8(g.vol);
    const backproj::MatrixPack pack(mats);
    backproj::backproject_streaming(tex32, pack, v32, backproj::StreamOffsets{0, 0}, g.nu, g.nv);
    backproj::backproject_streaming_q8(tex8, pack, v8, backproj::StreamOffsets{0, 0}, g.nu, g.nv);

    // Close (quantisation step ~0.004 over ~24 views) but NOT equal — the
    // 8-bit path must show measurable error, which is the paper's point.
    double max_err = 0.0;
    for (index_t i = 0; i < v32.count(); ++i)
        max_err = std::max(max_err, std::abs(static_cast<double>(
                                        v8.span()[static_cast<std::size_t>(i)] -
                                        v32.span()[static_cast<std::size_t>(i)])));
    EXPECT_LT(max_err, 0.1);
    EXPECT_GT(max_err, 1e-4);
}

}  // namespace
}  // namespace xct::iterative
