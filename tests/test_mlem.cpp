// MLEM baseline tests: multiplicative updates, non-negativity, residual
// decrease and convergence.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace xct::iterative
