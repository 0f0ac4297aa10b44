// Back-projection kernel tests.  The central claims under test:
//   * the streaming kernel (Listing 1), the Algorithm-1 reference and the
//     RTK-style baseline agree to the paper's 1e-5 threshold (Sec. 6.1);
//   * the circular texture addressing reproduces full-detector results
//     from band-restricted uploads;
//   * slab + offset reconstruction tiles to the full volume.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "backproj/kernel.hpp"
#include "backproj/reference.hpp"
#include "backproj/rtk_style.hpp"
#include "core/decompose.hpp"
#include "phantom/shepp_logan.hpp"

namespace xct::backproj {
namespace {

CbctGeometry geo(index_t nz = 24)
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 300.0;
    g.num_proj = 36;
    g.nu = 48;
    g.nv = 40;
    g.du = 0.6;
    g.dv = 0.6;
    g.vol = {24, 24, nz};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x);
    return g;
}

ProjectionStack random_stack(const CbctGeometry& g, unsigned seed)
{
    ProjectionStack p(g.num_proj, g.nv, g.nu);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> u(0.0f, 1.0f);
    for (float& v : p.span()) v = u(rng);
    return p;
}

float max_abs(std::span<const float> v)
{
    float m = 0.0f;
    for (float x : v) m = std::max(m, std::abs(x));
    return m;
}

/// Upload full frames into a texture laid out as the streaming kernel
/// expects (x = u, y = view, z = detector row).
sim::Texture3 make_texture(sim::Device& dev, const ProjectionStack& p, Range band)
{
    sim::Texture3 tex(dev, p.cols(), p.views(), band.length());
    std::vector<float> plane(static_cast<std::size_t>(p.cols() * p.views()));
    for (index_t v = band.lo; v < band.hi; ++v) {
        for (index_t s = 0; s < p.views(); ++s) {
            const auto row = p.row(s, v);
            std::copy(row.begin(), row.end(),
                      plane.begin() + static_cast<std::ptrdiff_t>(s * p.cols()));
        }
        tex.copy_planes(plane, v - band.lo, 1);
    }
    return tex;
}

TEST(Reference, EmptyStackLeavesVolumeZero)
{
    const CbctGeometry g = geo();
    ProjectionStack p(g.num_proj, g.nv, g.nu, 0.0f);
    Volume vol(g.vol);
    backproject_reference(p, projection_matrices(g), g, vol);
    for (float v : vol.span()) ASSERT_EQ(v, 0.0f);
}

TEST(Reference, UniformStackGivesPositiveCentre)
{
    const CbctGeometry g = geo();
    ProjectionStack p(g.num_proj, g.nv, g.nu, 1.0f);
    Volume vol(g.vol);
    backproject_reference(p, projection_matrices(g), g, vol);
    // Every view contributes ~1/z^2 with z near 1 at the axis.
    const float centre = vol.at(g.vol.x / 2, g.vol.y / 2, g.vol.z / 2);
    EXPECT_NEAR(centre, static_cast<float>(g.num_proj), 0.25f * static_cast<float>(g.num_proj));
}

TEST(Reference, SingleViewDepositsAlongRay)
{
    const CbctGeometry g = geo();
    ProjectionStack p(1, g.nv, g.nu, 0.0f);
    // Light up the principal point only.
    p.at(0, g.nv / 2, g.nu / 2) = 1.0f;
    const auto mats = projection_matrices(g);
    Volume vol(g.vol);
    backproject_reference(p, std::span<const Mat34>(mats.data(), 1), vol, 0, g.nu, g.nv);
    // Central voxel is on the central ray (geometry is centred, even sizes
    // put the axis between voxels — check the 4 central voxels share it).
    float centre = 0.0f;
    for (index_t j : {g.vol.y / 2 - 1, g.vol.y / 2})
        for (index_t i : {g.vol.x / 2 - 1, g.vol.x / 2})
            centre = std::max(centre, vol.at(i, j, g.vol.z / 2));
    EXPECT_GT(centre, 0.1f);
    // A corner voxel far off the ray gets nothing.
    EXPECT_EQ(vol.at(0, 0, 0), 0.0f);
}

TEST(Reference, SubPixelInterpolatesBilinearly)
{
    ProjectionStack p(1, 2, 2, 0.0f);
    p.at(0, 0, 0) = 1.0f;
    p.at(0, 0, 1) = 2.0f;
    p.at(0, 1, 0) = 3.0f;
    p.at(0, 1, 1) = 4.0f;
    EXPECT_FLOAT_EQ(sub_pixel(p, 0, 0.0f, 0.0f), 1.0f);
    EXPECT_FLOAT_EQ(sub_pixel(p, 0, 1.0f, 1.0f), 4.0f);
    EXPECT_FLOAT_EQ(sub_pixel(p, 0, 0.5f, 0.0f), 1.5f);
    EXPECT_FLOAT_EQ(sub_pixel(p, 0, 0.0f, 0.5f), 2.0f);
    EXPECT_FLOAT_EQ(sub_pixel(p, 0, 0.5f, 0.5f), 2.5f);
}

TEST(Streaming, ScalarMatchesReferenceOnFullVolume)
{
    // The retained Listing-1 scalar loop keeps the paper's exact 1e-5
    // agreement with the Algorithm-1 reference (Sec. 6.1).
    const CbctGeometry g = geo();
    const ProjectionStack p = random_stack(g, 7);
    const auto mats = projection_matrices(g);

    Volume ref(g.vol);
    backproject_reference(p, mats, g, ref);

    sim::Device dev(64u << 20);
    const sim::Texture3 tex = make_texture(dev, p, Range{0, g.nv});
    Volume out(g.vol);
    backproject_streaming_scalar(tex, MatrixPack(mats), out, StreamOffsets{0, 0}, g.nu, g.nv);

    for (index_t i = 0; i < out.count(); ++i)
        ASSERT_NEAR(out.span()[static_cast<std::size_t>(i)],
                    ref.span()[static_cast<std::size_t>(i)], 1e-5f);
}

TEST(Streaming, DefaultMatchesReferenceWithinSimdBound)
{
    // The vectorised default reorders the per-voxel arithmetic (fma walks
    // from double row constants), so agreement with the reference is the
    // documented relative bound, not bitwise.
    const CbctGeometry g = geo();
    const ProjectionStack p = random_stack(g, 7);
    const auto mats = projection_matrices(g);

    Volume ref(g.vol);
    backproject_reference(p, mats, g, ref);

    sim::Device dev(64u << 20);
    const sim::Texture3 tex = make_texture(dev, p, Range{0, g.nv});
    Volume out(g.vol);
    backproject_streaming(tex, MatrixPack(mats), out, StreamOffsets{0, 0}, g.nu, g.nv);

    const float tol = kSimdVsScalarRelBound * max_abs(ref.span());
    for (index_t i = 0; i < out.count(); ++i)
        ASSERT_NEAR(out.span()[static_cast<std::size_t>(i)],
                    ref.span()[static_cast<std::size_t>(i)], tol);
}

TEST(Streaming, SlabsWithOffsetsTileTheFullVolume)
{
    const CbctGeometry g = geo();
    const ProjectionStack p = random_stack(g, 8);
    const auto mats = projection_matrices(g);

    Volume ref(g.vol);
    backproject_reference(p, mats, g, ref);

    sim::Device dev(64u << 20);
    const sim::Texture3 tex = make_texture(dev, p, Range{0, g.nv});
    const float tol = kSimdVsScalarRelBound * max_abs(ref.span());
    const index_t nb = 7;  // deliberately not dividing Nz
    for (index_t k0 = 0; k0 < g.vol.z; k0 += nb) {
        const index_t len = std::min(nb, g.vol.z - k0);
        Volume slab(Dim3{g.vol.x, g.vol.y, len});
        backproject_streaming(tex, MatrixPack(mats), slab, StreamOffsets{k0, 0}, g.nu, g.nv);
        for (index_t k = 0; k < len; ++k)
            for (index_t j = 0; j < g.vol.y; ++j)
                for (index_t i = 0; i < g.vol.x; ++i)
                    ASSERT_NEAR(slab.at(i, j, k), ref.at(i, j, k0 + k), tol)
                        << i << "," << j << "," << k0 + k;
    }
}

TEST(Streaming, BandRestrictedTextureMatchesFullForItsSlab)
{
    const CbctGeometry g = geo();
    const ProjectionStack p = random_stack(g, 9);
    const auto mats = projection_matrices(g);
    const Range slab{4, 12};
    const Range band = compute_ab(g, slab);

    Volume ref(Dim3{g.vol.x, g.vol.y, slab.length()});
    backproject_reference(p, mats, ref, slab.lo, g.nu, g.nv);

    sim::Device dev(64u << 20);
    const sim::Texture3 tex = make_texture(dev, p, band);
    Volume out(Dim3{g.vol.x, g.vol.y, slab.length()});
    backproject_streaming(tex, MatrixPack(mats), out, StreamOffsets{slab.lo, band.lo}, g.nu,
                          g.nv);

    const float tol = kSimdVsScalarRelBound * max_abs(ref.span());
    for (index_t i = 0; i < out.count(); ++i)
        ASSERT_NEAR(out.span()[static_cast<std::size_t>(i)],
                    ref.span()[static_cast<std::size_t>(i)], tol);
}

TEST(Streaming, CircularDepthReusePreservesResults)
{
    // Simulate the Algorithm-3 streaming pattern: a texture of H rows where
    // consecutive slabs overwrite retired rows.  Results must match the
    // non-streamed reference slab by slab.
    const CbctGeometry g = geo(24);
    const ProjectionStack p = random_stack(g, 10);
    const auto mats = projection_matrices(g);
    const auto plans = plan_slabs(g, Range{0, g.vol.z}, 6);

    // H = max rows any slab needs; first band's origin anchors the wrap.
    index_t h = 0;
    for (const auto& pl : plans) h = std::max(h, pl.rows.length());
    const index_t origin = plans.front().rows.lo;

    sim::Device dev(64u << 20);
    sim::Texture3 tex(dev, g.nu, g.num_proj, h);
    std::vector<float> plane(static_cast<std::size_t>(g.nu * g.num_proj));

    for (const auto& pl : plans) {
        // Upload only the differential rows, at circular positions
        // (v - origin) % H — Algorithm 3's s % H bookkeeping.
        for (index_t v = pl.delta.lo; v < pl.delta.hi; ++v) {
            for (index_t s = 0; s < g.num_proj; ++s) {
                const auto row = p.row(s, v);
                std::copy(row.begin(), row.end(),
                          plane.begin() + static_cast<std::ptrdiff_t>(s * g.nu));
            }
            tex.copy_planes(plane, (v - origin) % h, 1);
        }

        Volume slab(Dim3{g.vol.x, g.vol.y, pl.slab.length()});
        backproject_streaming(tex, MatrixPack(mats), slab, StreamOffsets{pl.slab.lo, origin},
                              g.nu, g.nv);

        Volume ref(Dim3{g.vol.x, g.vol.y, pl.slab.length()});
        backproject_reference(p, mats, ref, pl.slab.lo, g.nu, g.nv);
        const float tol = kSimdVsScalarRelBound * max_abs(ref.span());
        for (index_t i = 0; i < slab.count(); ++i)
            ASSERT_NEAR(slab.span()[static_cast<std::size_t>(i)],
                        ref.span()[static_cast<std::size_t>(i)], tol)
                << "slab at " << pl.slab.lo;
    }
}

TEST(StreamingIncremental, HandlesSlabOffsetsAndBands)
{
    const CbctGeometry g = geo();
    const ProjectionStack p = random_stack(g, 22);
    const auto mats = projection_matrices(g);
    const Range slab{6, 14};
    const Range band = compute_ab(g, slab);

    sim::Device dev(64u << 20);
    const sim::Texture3 tex = make_texture(dev, p, band);
    Volume ref(Dim3{g.vol.x, g.vol.y, slab.length()});
    backproject_reference(p, mats, ref, slab.lo, g.nu, g.nv);
    Volume fast(Dim3{g.vol.x, g.vol.y, slab.length()});
    backproject_streaming(tex, MatrixPack(mats), fast, StreamOffsets{slab.lo, band.lo}, g.nu,
                          g.nv);

    float scale = 0.0f;
    for (float v : ref.span()) scale = std::max(scale, std::abs(v));
    for (index_t i = 0; i < ref.count(); ++i)
        ASSERT_NEAR(fast.span()[static_cast<std::size_t>(i)],
                    ref.span()[static_cast<std::size_t>(i)], 2e-4f * scale);
}

TEST(RtkStyle, MatchesReference)
{
    const CbctGeometry g = geo();
    const ProjectionStack p = random_stack(g, 11);
    const auto mats = projection_matrices(g);

    Volume ref(g.vol);
    backproject_reference(p, mats, g, ref);

    sim::Device dev(256u << 20);
    Volume out(g.vol);
    backproject_rtk_style(dev, p, mats, g, out, /*batch_views=*/8);
    for (index_t i = 0; i < out.count(); ++i)
        ASSERT_NEAR(out.span()[static_cast<std::size_t>(i)],
                    ref.span()[static_cast<std::size_t>(i)], 1e-5f);
}

TEST(RtkStyle, FailsWhenVolumeExceedsDeviceCapacity)
{
    // The Table-5 "✗" cells: the classical kernel cannot reconstruct a
    // volume larger than device memory.
    const CbctGeometry g = geo();
    const ProjectionStack p = random_stack(g, 12);
    const auto mats = projection_matrices(g);
    sim::Device dev(static_cast<std::size_t>(g.vol.count()) * sizeof(float) / 2);
    Volume out(g.vol);
    EXPECT_THROW(backproject_rtk_style(dev, p, mats, g, out, 8), sim::DeviceOutOfMemory);
}

TEST(RtkStyle, RedundantTrafficExceedsStreaming)
{
    // Table 2's point: the classical scheme moves full frames; the
    // decomposed scheme moves each needed row once.
    const CbctGeometry g = geo();
    const ProjectionStack p = random_stack(g, 13);
    const auto mats = projection_matrices(g);

    sim::Device rtk_dev(256u << 20);
    Volume out(g.vol);
    backproject_rtk_style(rtk_dev, p, mats, g, out, 8);

    sim::Device str_dev(256u << 20);
    const auto plans = plan_slabs(g, Range{0, g.vol.z}, 6);
    index_t streamed_rows = 0;
    for (const auto& pl : plans) streamed_rows += pl.delta.length();
    const std::uint64_t streaming_bytes = static_cast<std::uint64_t>(streamed_rows) *
                                          static_cast<std::uint64_t>(g.nu * g.num_proj) *
                                          sizeof(float);
    EXPECT_GE(rtk_dev.h2d_stats().bytes, streaming_bytes);
}

TEST(Streaming, ViewBatchesAccumulate)
{
    // Processing the view dimension in two halves (the Np split of a
    // 2-rank group, before reduction) must sum to the full result.
    const CbctGeometry g = geo();
    const ProjectionStack p = random_stack(g, 14);
    const auto mats = projection_matrices(g);

    Volume ref(g.vol);
    backproject_reference(p, mats, g, ref);

    sim::Device dev(128u << 20);
    Volume acc(g.vol);
    for (index_t part = 0; part < 2; ++part) {
        const Range views = split_even(g.num_proj, 2, part);
        ProjectionStack sub(views.length(), g.nv, g.nu);
        for (index_t s = views.lo; s < views.hi; ++s) {
            const auto src = p.view(s);
            const auto dst = sub.view(s - views.lo);
            std::copy(src.begin(), src.end(), dst.begin());
        }
        const sim::Texture3 tex = make_texture(dev, sub, Range{0, g.nv});
        const MatrixPack pack(std::span<const Mat34>(mats.data() + views.lo,
                                                     static_cast<std::size_t>(views.length())));
        backproject_streaming(tex, pack, acc, StreamOffsets{0, 0}, g.nu, g.nv);
    }
    const float tol = kSimdVsScalarRelBound * max_abs(ref.span());
    for (index_t i = 0; i < acc.count(); ++i)
        ASSERT_NEAR(acc.span()[static_cast<std::size_t>(i)],
                    ref.span()[static_cast<std::size_t>(i)], tol);
}

TEST(Streaming, RejectsMismatchedMatrixCount)
{
    const CbctGeometry g = geo();
    sim::Device dev(64u << 20);
    sim::Texture3 tex(dev, g.nu, 4, 8);
    const auto mats = projection_matrices(g);  // 36 matrices vs height 4
    Volume vol(g.vol);
    EXPECT_THROW(backproject_streaming(tex, MatrixPack(mats), vol, StreamOffsets{}, g.nu, g.nv),
                 std::invalid_argument);
}

TEST(Streaming, RequiresZInvariantMatricesButScalarStaysGeneral)
{
    // The column walk hoists x and zn out of z, which is only valid when
    // the detector is parallel to the rotation axis (m[0].z == m[2].z == 0,
    // true of every projection_matrix).  A tilted matrix must be refused
    // by name; the scalar Listing-1 loop handles any matrix.
    const CbctGeometry g = geo(8);
    const ProjectionStack p = random_stack(g, 15);
    auto mats = projection_matrices(g);
    ASSERT_TRUE(MatrixPack(mats).z_invariant());
    sim::Device dev(64u << 20);
    const sim::Texture3 tex = make_texture(dev, p, Range{0, g.nv});
    for (const int row : {0, 2}) {
        auto tilted = mats;
        tilted[3][row].z = 1e-3;
        const MatrixPack pack(tilted);
        EXPECT_FALSE(pack.z_invariant());
        Volume vol(g.vol);
        try {
            backproject_streaming(tex, pack, vol, StreamOffsets{0, 0}, g.nu, g.nv);
            ADD_FAILURE() << "tilted row " << row << " accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("m[0].z == m[2].z == 0"), std::string::npos)
                << e.what();
        }
        EXPECT_NO_THROW(
            backproject_streaming_scalar(tex, pack, vol, StreamOffsets{0, 0}, g.nu, g.nv));
        EXPECT_GT(max_abs(vol.span()), 0.0f);
    }
    // A tilted y row (m[1].z) is what every slab already has: accepted.
    mats[3][1].z += 1e-3;
    EXPECT_TRUE(MatrixPack(mats).z_invariant());
    // A one-column detector has no (u, u+1) texel pair to fetch.
    const sim::Texture3 narrow(dev, 1, g.num_proj, g.nv);
    Volume vol(g.vol);
    EXPECT_THROW(backproject_streaming(narrow, MatrixPack(mats), vol, StreamOffsets{0, 0}, 1, g.nv),
                 std::invalid_argument);
}

TEST(QuantizedTexture, Q8KernelApproximatesFp32Kernel)
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
    const MatrixPack pack(mats);
    backproject_streaming(tex32, pack, v32, StreamOffsets{0, 0}, g.nu, g.nv);
    backproject_streaming_q8(tex8, pack, v8, StreamOffsets{0, 0}, g.nu, g.nv);

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
}  // namespace xct::backproj
