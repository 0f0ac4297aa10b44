// Phantom substrate tests: analytic densities, exact line integrals,
// voxelisation and the cone-beam forward projector.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <set>
#include <utility>

#include "core/simd.hpp"
#include "phantom/shepp_logan.hpp"
#include "scoped_threads.hpp"

namespace xct::phantom {
namespace {

using testutil::ScopedThreads;

CbctGeometry geo()
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = 8;
    g.nu = 64;
    g.nv = 48;
    g.du = 0.5;
    g.dv = 0.5;
    g.vol = {32, 32, 24};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x);
    return g;
}

TEST(SheppLogan, HasTenEllipsoids)
{
    EXPECT_EQ(shepp_logan_3d(10.0).size(), 10u);
}

TEST(SheppLogan, CentreDensityIsSkullMinusBrain)
{
    const auto e = shepp_logan_3d(10.0);
    EXPECT_NEAR(density_at(e, 0.0, 0.0, 0.0), 0.2, 1e-12);
}

TEST(SheppLogan, OutsideSkullIsZero)
{
    const auto e = shepp_logan_3d(10.0);
    EXPECT_DOUBLE_EQ(density_at(e, 11.0, 0.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(density_at(e, 0.0, 0.0, 15.0), 0.0);
}

TEST(SheppLogan, ScalesWithRadius)
{
    const auto small = shepp_logan_3d(5.0);
    const auto big = shepp_logan_3d(20.0);
    // Same normalised position must give the same density.
    EXPECT_DOUBLE_EQ(density_at(small, 1.0, 2.0, 0.5), density_at(big, 4.0, 8.0, 2.0));
}

TEST(LineIntegral, ChordThroughSphereCentre)
{
    const std::vector<Ellipsoid> e{{2.0, 3.0, 3.0, 3.0, 0.0, 0.0, 0.0, 0.0}};
    // Segment passing straight through: integral = density * diameter.
    const double li = line_integral(e, {-10.0, 0.0, 0.0}, {10.0, 0.0, 0.0});
    EXPECT_NEAR(li, 2.0 * 6.0, 1e-12);
}

TEST(LineIntegral, OffCentreChordLength)
{
    const std::vector<Ellipsoid> e{{1.0, 5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0}};
    // Chord at impact parameter 3 of a radius-5 sphere: 2*sqrt(25-9) = 8.
    const double li = line_integral(e, {-20.0, 3.0, 0.0}, {20.0, 3.0, 0.0});
    EXPECT_NEAR(li, 8.0, 1e-12);
}

TEST(LineIntegral, MissingRayIsZero)
{
    const std::vector<Ellipsoid> e{{1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0}};
    EXPECT_DOUBLE_EQ(line_integral(e, {-10.0, 5.0, 0.0}, {10.0, 5.0, 0.0}), 0.0);
}

TEST(LineIntegral, SegmentClipping)
{
    const std::vector<Ellipsoid> e{{1.0, 4.0, 4.0, 4.0, 0.0, 0.0, 0.0, 0.0}};
    // Segment ends at the centre: only half the diameter is traversed.
    EXPECT_NEAR(line_integral(e, {-10.0, 0.0, 0.0}, {0.0, 0.0, 0.0}), 4.0, 1e-12);
    // Segment fully inside.
    EXPECT_NEAR(line_integral(e, {-1.0, 0.0, 0.0}, {1.0, 0.0, 0.0}), 2.0, 1e-12);
}

TEST(LineIntegral, EllipsoidsBeyondEitherEndAddNothing)
{
    // The segment's line crosses both spheres, the segment neither: the
    // clamped chord is empty, not negative.
    const std::vector<Ellipsoid> e{{1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0},
                                   {2.0, 1.0, 1.0, 1.0, -20.0, 0.0, 0.0, 0.0}};
    EXPECT_EQ(line_integral(e, {-10.0, 0.0, 0.0}, {-5.0, 0.0, 0.0}), 0.0);
}

TEST(LineIntegral, RotatedEllipsoidMatchesAxisAligned)
{
    // A sphere is rotation invariant: phi must not change the integral.
    std::vector<Ellipsoid> a{{1.0, 2.0, 2.0, 2.0, 1.0, -1.0, 0.5, 0.0}};
    std::vector<Ellipsoid> b = a;
    b[0].phi = 1.234;
    const Vec3 s{-9.0, 2.0, 1.0};
    const Vec3 d{8.0, -3.0, 0.0};
    EXPECT_NEAR(line_integral(a, s, d), line_integral(b, s, d), 1e-12);
}

TEST(LineIntegral, AdditiveOverEllipsoids)
{
    std::vector<Ellipsoid> both{{1.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0},
                                {0.5, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0}};
    std::vector<Ellipsoid> first{both[0]};
    std::vector<Ellipsoid> second{both[1]};
    const Vec3 s{-10.0, 0.3, 0.1};
    const Vec3 d{10.0, -0.2, 0.0};
    EXPECT_NEAR(line_integral(both, s, d),
                line_integral(first, s, d) + line_integral(second, s, d), 1e-12);
}

TEST(Voxelize, MatchesPointDensities)
{
    const CbctGeometry g = geo();
    const auto e = shepp_logan_3d(g.dx * static_cast<double>(g.vol.x) / 2.2);
    const Volume v = voxelize(e, g);
    const double ox = (static_cast<double>(g.vol.x) - 1.0) / 2.0;
    const double oy = (static_cast<double>(g.vol.y) - 1.0) / 2.0;
    const double oz = (static_cast<double>(g.vol.z) - 1.0) / 2.0;
    for (index_t k = 0; k < g.vol.z; k += 5)
        for (index_t j = 0; j < g.vol.y; j += 7)
            for (index_t i = 0; i < g.vol.x; i += 3) {
                const double want = density_at(e, (static_cast<double>(i) - ox) * g.dx,
                                               (static_cast<double>(j) - oy) * g.dy,
                                               (static_cast<double>(k) - oz) * g.dz);
                ASSERT_FLOAT_EQ(v.at(i, j, k), static_cast<float>(want));
            }
}

TEST(ForwardProject, CentralPixelSeesDiameterOfCentredSphere)
{
    CbctGeometry g = geo();
    const double r = 3.0;
    const std::vector<Ellipsoid> e{{1.0, r, r, r, 0.0, 0.0, 0.0, 0.0}};
    const ProjectionStack p = forward_project(e, g);
    // The central detector pixel's ray passes through the sphere centre.
    const float got = p.at(0, g.nv / 2, g.nu / 2);
    // Centre is between pixels; allow tolerance of a half-pixel ray offset.
    EXPECT_NEAR(got, 2.0 * r, 0.15);
}

TEST(ForwardProject, RotationInvariantForCentredSphere)
{
    const CbctGeometry g = geo();
    const std::vector<Ellipsoid> e{{1.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0}};
    const ProjectionStack p = forward_project(e, g);
    for (index_t s = 1; s < g.num_proj; ++s)
        for (index_t v = 0; v < g.nv; v += 7)
            for (index_t u = 0; u < g.nu; u += 5)
                ASSERT_NEAR(p.at(s, v, u), p.at(0, v, u), 1e-4f) << "s=" << s;
}

TEST(ForwardProject, OffCentreObjectRotatesThroughViews)
{
    const CbctGeometry g = geo();
    const std::vector<Ellipsoid> e{{1.0, 1.5, 1.5, 1.5, 4.0, 0.0, 0.0, 0.0}};
    const ProjectionStack p = forward_project(e, g);
    // Half a rotation later the blob appears mirrored in U.
    const index_t half = g.num_proj / 2;
    double m0 = 0.0, mh = 0.0;  // first moments in U of view 0 and half
    double w0 = 0.0, wh = 0.0;
    for (index_t u = 0; u < g.nu; ++u) {
        m0 += static_cast<double>(u) * p.at(0, g.nv / 2, u);
        w0 += p.at(0, g.nv / 2, u);
        mh += static_cast<double>(u) * p.at(half, g.nv / 2, u);
        wh += p.at(half, g.nv / 2, u);
    }
    const double cu = (static_cast<double>(g.nu) - 1.0) / 2.0;
    EXPECT_NEAR((m0 / w0 - cu), -(mh / wh - cu), 0.1);
}

TEST(ForwardProject, BandRestrictedMatchesFull)
{
    const CbctGeometry g = geo();
    const auto e = shepp_logan_3d(4.0);
    const ProjectionStack full = forward_project(e, g);
    const Range band{10, 30};
    const ProjectionStack part = forward_project(e, g, Range{2, 5}, band);
    ASSERT_EQ(part.views(), 3);
    for (index_t s = 0; s < 3; ++s)
        for (index_t v = band.lo; v < band.hi; ++v)
            for (index_t u = 0; u < g.nu; ++u)
                ASSERT_EQ(part.at(s, v, u), full.at(s + 2, v, u));
}

/// Every pixel of forward_project over (views, band) against the unculled
/// sum over every ellipsoid along the same ray (line_integral on
/// ViewRays), bit for bit, at pool widths 1 and 4.
void expect_cull_exact(const std::vector<Ellipsoid>& e, const CbctGeometry& g, Range views,
                       Range band)
{
    for (const int threads : {1, 4}) {
        ScopedThreads pin(threads);
        const ProjectionStack p = forward_project(e, g, views, band);
        index_t lit = 0;
        for (index_t s = views.lo; s < views.hi; ++s) {
            const ViewRays rays(g, s);
            for (index_t v = band.lo; v < band.hi; ++v)
                for (index_t u = 0; u < g.nu; ++u) {
                    const float want =
                        static_cast<float>(line_integral(e, rays.src, rays.pixel(u, v)));
                    const float got = p.at(s - views.lo, v, u);
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(got), std::bit_cast<std::uint32_t>(want))
                        << "view " << s << " row " << v << " u " << u << ", " << threads
                        << " threads: " << got << " vs " << want;
                    if (want != 0.0f) ++lit;
                }
        }
        EXPECT_GT(lit, 0) << "the phantom casts no shadow on the detector";
    }
}

/// Seeded rotated ellipsoids of every size from a tenth of a pixel's
/// footprint at the axis to most of the field, centred anywhere in (and a
/// little beyond) a field of half-width `fov` [mm].
std::vector<Ellipsoid> random_phantom(std::uint64_t seed, index_t count, double fov)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> pos(-1.2 * fov, 1.2 * fov);
    std::uniform_real_distribution<double> size(0.02, 0.6 * fov);
    std::uniform_real_distribution<double> angle(-std::numbers::pi, std::numbers::pi);
    std::uniform_real_distribution<double> density(-1.0, 1.0);
    std::vector<Ellipsoid> e;
    for (index_t i = 0; i < count; ++i)
        e.push_back({density(rng), size(rng), size(rng), size(rng), pos(rng), pos(rng), pos(rng),
                     angle(rng)});
    return e;
}

TEST(ForwardProject, CullIsExactOnRandomPhantoms)
{
    const CbctGeometry g = geo();
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(seed);
        expect_cull_exact(random_phantom(seed, 24, 6.0), g, Range{0, g.num_proj}, Range{0, g.nv});
    }
    expect_cull_exact(porous_bean(5.0, 40, 9), g, Range{0, g.num_proj}, Range{0, g.nv});
}

TEST(ForwardProject, CullIsExactForPoresAtTheFieldEdges)
{
    // Tiny rotated pores on the rays of the detector's corners and edge
    // midpoints, and half a pixel outside them, at three depths: their
    // footprints straddle the detector's border.
    const CbctGeometry g = geo();
    const ViewRays rays(g, 0);
    std::vector<Ellipsoid> e;
    const index_t us[] = {-1, 0, g.nu / 2, g.nu - 1, g.nu};
    const index_t vs[] = {-1, 0, g.nv / 2, g.nv - 1, g.nv};
    double phi = 0.3;
    for (const index_t u : us)
        for (const index_t v : vs)
            for (const double t : {0.3, 0.4, 0.5}) {
                const Vec3 at = rays.src + (rays.pixel(u, v) - rays.src) * t;
                e.push_back({0.5, 0.05, 0.02, 0.04, at.x, at.y, at.z, phi});
                phi += 0.7;
            }
    expect_cull_exact(e, g, Range{0, g.num_proj}, Range{0, g.nv});
}

TEST(ForwardProject, CullIsExactForNeedlesThatFillTheirBound)
{
    // Needles along x, y and z near the axis: in the views that see them
    // side on, their shadows reach within a fraction of a pixel of the
    // cube's footprint, so a footprint a pixel short loses their ends.
    const CbctGeometry g = geo();
    std::vector<Ellipsoid> e;
    for (const double at : {-2.0, -0.35, 0.0, 0.1, 1.3}) {
        e.push_back({0.4, 3.0, 0.03, 0.03, at, 0.2 * at, 0.5 * at, 0.0});
        e.push_back({0.6, 2.0, 0.02, 0.02, 0.3 * at, at, -at, std::numbers::pi / 2.0});
        e.push_back({0.5, 0.02, 0.03, 4.0, at, -0.5 * at, 0.25 * at, 0.0});
    }
    expect_cull_exact(e, g, Range{0, g.num_proj}, Range{0, g.nv});
}

TEST(ForwardProject, CullIsExactWhenAnEllipsoidEnclosesTheSource)
{
    // A shell round the whole orbit, one ellipsoid round view 0's source,
    // and one behind it: each has corners at or behind the source in some
    // view, so that view does not cull it.
    const CbctGeometry g = geo();
    const Vec3 src = ViewRays(g, 0).src;
    std::vector<Ellipsoid> e = shepp_logan_3d(4.0);
    e.push_back({0.01, 1.5 * g.dso, 1.4 * g.dso, 20.0, 0.0, 0.0, 0.0, 0.2});
    e.push_back({0.3, 6.0, 4.0, 5.0, src.x, src.y, src.z, 0.9});
    e.push_back({0.7, 2.0, 3.0, 2.0, 2.0 * src.x, 2.0 * src.y, 1.0, 0.0});
    expect_cull_exact(e, g, Range{0, g.num_proj}, Range{0, g.nv});
}

TEST(ForwardProject, CullIsExactWithOffsetsShortScanAndSubRanges)
{
    CbctGeometry g = geo();
    g.num_proj = 12;
    g.sigma_u = 2.5;
    g.sigma_v = -1.75;
    g.sigma_cor = 0.6;
    g.scan_range = 200.0 * std::numbers::pi / 180.0;
    const auto e = random_phantom(11, 16, 6.0);
    expect_cull_exact(e, g, Range{0, g.num_proj}, Range{0, g.nv});
    expect_cull_exact(e, g, Range{3, 8}, Range{7, 31});
}

// The projector integrates simd::kLanesD pixels per vector; line_integral
// is the one-lane form of the same code.  The cases below put shadow edges,
// detector edges and the quadratic's branch points on every lane.

TEST(ForwardProject, LanesMatchLineIntegralOnShadowsOfEveryWidth)
{
    // Flat round pores, each shadowing one row of view 0 with a run of L
    // lit pixels that starts at lane s of a vector, for every L in
    // 1..2 kLanesD + 1 and every s; the other views move them about.
    constexpr index_t W = simd::kLanesD;
    const CbctGeometry g = geo();
    const double px_mm = g.du / g.magnification();  // one pixel at the axis
    const double cu = (static_cast<double>(g.nu) - 1.0) / 2.0;
    const double cv = (static_cast<double>(g.nv) - 1.0) / 2.0;
    std::vector<Ellipsoid> e;
    index_t k = 0;
    for (index_t v = 2; v < g.nv - 2; v += 2)
        for (index_t j = 0; j < 3; ++j, ++k) {
            const index_t len = 1 + k % (2 * W + 1);
            const index_t start = 16 * j + 4 + (k / (2 * W + 1)) % W;
            const double mid = static_cast<double>(start) + static_cast<double>(len - 1) / 2.0;
            const double r = (static_cast<double>(len - 1) / 2.0 + 0.25) * px_mm;
            e.push_back({0.5, r, r, 0.3 * px_mm, (mid - cu) * px_mm, 0.0,
                         (static_cast<double>(v) - cv) * g.dv / g.magnification(), 0.0});
        }
    expect_cull_exact(e, g, Range{0, g.num_proj}, Range{0, g.nv});

    // The runs view 0 shows: every (width, starting lane) the case names.
    std::set<std::pair<index_t, index_t>> seen;
    const ProjectionStack p = forward_project(e, g, Range{0, 1}, Range{0, g.nv});
    for (index_t v = 0; v < g.nv; ++v)
        for (index_t u = 0; u < g.nu;) {
            index_t end = u;
            while (end < g.nu && p.at(0, v, end) != 0.0f) ++end;
            if (end > u) seen.insert({end - u, u % W});
            u = end + 1;
        }
    for (index_t len = 1; len <= 2 * W + 1; ++len)
        for (index_t s = 0; s < W; ++s)
            EXPECT_TRUE(seen.count({len, s})) << len << " lit pixels from lane " << s;
}

TEST(ForwardProject, LanesMatchLineIntegralOnDetectorsNarrowerThanAVector)
{
    // From the geometry's smallest detector, 2 columns, to one past a vector.
    for (index_t nu = 2; nu <= simd::kLanesD + 1; ++nu) {
        SCOPED_TRACE(nu);
        CbctGeometry g = geo();
        g.nu = nu;
        g.sigma_u = 0.3;
        // A sphere over the last rows, wider than the detector: the lanes
        // past its last column see it, and must not spill into the next
        // view's first row, which no ellipsoid covers.
        std::vector<Ellipsoid> e = shepp_logan_3d(0.2);
        e.push_back({0.5, 1.0, 1.0, 1.0, 0.0, 0.0, 4.5, 0.0});
        expect_cull_exact(e, g, Range{0, g.num_proj}, Range{0, g.nv});
    }
}

TEST(ForwardProject, LanesMatchLineIntegralOnGrazingRays)
{
    // View 0's central ray is the y axis, from (0, -64, 0) to (0, 64, 0),
    // in exact arithmetic: the unit spheres at (+-1, 0, 0) and the two
    // ellipsoids above and below it touch it with a discriminant of exactly
    // 0, and the rays of other pixels and views graze them.
    CbctGeometry g = geo();
    g.dso = 64.0;
    g.dsd = 128.0;
    g.nu = 33;
    g.nv = 33;
    const std::vector<Ellipsoid> e{{0.5, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0},
                                   {0.25, 1.0, 1.0, 1.0, -1.0, 0.0, 0.0, 0.0},
                                   {0.75, 1.0, 1.0, 0.5, 0.0, 0.0, 0.5, 0.0},
                                   {1.0, 2.0, 0.5, 1.0, 0.0, 0.0, -1.0, 0.0}};
    const ViewRays rays(g, 0);
    ASSERT_EQ(rays.pixel(16, 16).x, 0.0);
    ASSERT_EQ(rays.pixel(16, 16).z, 0.0);
    EXPECT_EQ(line_integral({e[0]}, rays.src, rays.pixel(16, 16)), 0.0);
    expect_cull_exact(e, g, Range{0, g.num_proj}, Range{0, g.nv});
}

TEST(ForwardProject, LanesMatchLineIntegralWhenRaysStartOrEndInsideAnEllipsoid)
{
    // Ellipsoids round view 0's source (t0 clamps to 0) and round pieces of
    // its detector (t1 clamps to 1), one of them holding both ends of some
    // rays, over a phantom in between.
    const CbctGeometry g = geo();
    const ViewRays rays(g, 0);
    const Vec3 src = rays.src;
    const Vec3 mid = rays.pixel(g.nu / 2, g.nv / 2);
    const Vec3 corner = rays.pixel(3, g.nv - 5);
    std::vector<Ellipsoid> e = shepp_logan_3d(4.0);
    e.push_back({0.2, 3.0, 5.0, 2.0, src.x, src.y, src.z, 0.4});
    e.push_back({0.3, 4.0, 6.0, 3.0, mid.x, mid.y, mid.z, -0.2});
    e.push_back({0.6, 2.0, 1.0, 1.5, corner.x, corner.y, corner.z, 1.1});
    e.push_back({0.05, 30.0, 1.2 * g.dsd, 4.0, 0.0, 0.0, 0.0, 0.0});
    expect_cull_exact(e, g, Range{0, g.num_proj}, Range{0, g.nv});
}

TEST(ForwardProject, LanesMatchLineIntegralOnZeroDensityAndNeedles)
{
    // Zero-density ellipsoids (both signs of zero) over and under a lit
    // phantom, and needles a tenth of a pixel wide along each axis.
    const CbctGeometry g = geo();
    std::vector<Ellipsoid> e{{0.0, 5.0, 4.0, 3.0, 0.0, 0.0, 0.0, 0.3},
                             {-0.0, 2.0, 2.0, 2.0, 1.0, 1.0, 0.0, 0.0}};
    for (const Ellipsoid& s : shepp_logan_3d(4.0)) e.push_back(s);
    e.push_back({0.0, 1.0, 1.0, 1.0, -1.0, 0.5, 0.5, 0.0});
    const double thin = 0.1 * g.du / g.magnification();
    for (const double at : {-1.5, 0.0, 0.7}) {
        e.push_back({0.9, 4.0, thin, thin, at, 0.3 * at, 0.2, 0.1});
        e.push_back({0.7, thin, 4.0, thin, 0.5 * at, at, -0.4, 0.0});
        e.push_back({0.8, thin, thin, 4.0, at, -at, 0.0, 0.7});
    }
    expect_cull_exact(e, g, Range{0, g.num_proj}, Range{0, g.nv});
}

TEST(ForwardProject, MagnificationEnlargesShadow)
{
    // The cone magnifies: the same sphere covers ~mag times more detector
    // pixels than its physical size.
    CbctGeometry g = geo();
    const double r = 2.0;
    const std::vector<Ellipsoid> e{{1.0, r, r, r, 0.0, 0.0, 0.0, 0.0}};
    const ProjectionStack p = forward_project(e, g);
    index_t hit = 0;
    for (index_t u = 0; u < g.nu; ++u)
        if (p.at(0, g.nv / 2, u) > 0.0f) ++hit;
    const double expected_px = 2.0 * r * g.magnification() / g.du;
    EXPECT_NEAR(static_cast<double>(hit), expected_px, 3.0);
}

TEST(PorousBean, DeterministicForSeed)
{
    const auto a = porous_bean(5.0, 12, 42);
    const auto b = porous_bean(5.0, 12, 42);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].cx, b[i].cx);
        EXPECT_DOUBLE_EQ(a[i].a, b[i].a);
    }
    const auto c = porous_bean(5.0, 12, 43);
    EXPECT_NE(a[2].cx, c[2].cx);
}

TEST(PorousBean, BodyPlusPores)
{
    const auto e = porous_bean(5.0, 8, 1);
    EXPECT_EQ(e.size(), 10u);  // body + crease + 8 pores
    EXPECT_GT(density_at(e, 0.0, 3.5, 0.0), 0.0);  // body off the crease
}

TEST(ForwardProject, RejectsBadRanges)
{
    const CbctGeometry g = geo();
    const auto e = shepp_logan_3d(4.0);
    EXPECT_THROW(forward_project(e, g, Range{0, 0}, Range{0, g.nv}), std::invalid_argument);
    EXPECT_THROW(forward_project(e, g, Range{0, 1}, Range{0, g.nv + 1}), std::invalid_argument);
}

}  // namespace
}  // namespace xct::phantom
