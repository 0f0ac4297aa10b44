#include "phantom/shepp_logan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <random>
#include <span>

#include "core/parallel.hpp"
#include "core/scratch.hpp"
#include "core/simd.hpp"

namespace xct::phantom {

std::vector<Ellipsoid> shepp_logan_3d(double radius_mm)
{
    require(radius_mm > 0.0, "shepp_logan_3d: radius must be positive");
    // Classical table (unit-cube coordinates), modified contrast variant.
    // Columns: density, a, b, c, cx, cy, cz, phi [deg].
    constexpr double deg = std::numbers::pi / 180.0;
    const double r = radius_mm / 0.92;  // outer ellipsoid's largest semi-axis -> radius_mm
    return {
        {1.0, 0.69 * r, 0.92 * r, 0.81 * r, 0.0, 0.0, 0.0, 0.0},
        {-0.8, 0.6624 * r, 0.874 * r, 0.78 * r, 0.0, -0.0184 * r, 0.0, 0.0},
        {-0.2, 0.11 * r, 0.31 * r, 0.22 * r, 0.22 * r, 0.0, 0.0, -18.0 * deg},
        {-0.2, 0.16 * r, 0.41 * r, 0.28 * r, -0.22 * r, 0.0, 0.0, 18.0 * deg},
        {0.1, 0.21 * r, 0.25 * r, 0.41 * r, 0.0, 0.35 * r, -0.15 * r, 0.0},
        {0.1, 0.046 * r, 0.046 * r, 0.05 * r, 0.0, 0.1 * r, 0.25 * r, 0.0},
        {0.1, 0.046 * r, 0.046 * r, 0.05 * r, 0.0, -0.1 * r, 0.25 * r, 0.0},
        {0.1, 0.046 * r, 0.023 * r, 0.05 * r, -0.08 * r, -0.605 * r, 0.0, 0.0},
        {0.1, 0.023 * r, 0.023 * r, 0.02 * r, 0.0, -0.606 * r, 0.0, 0.0},
        {0.1, 0.023 * r, 0.046 * r, 0.02 * r, 0.06 * r, -0.605 * r, 0.0, 0.0},
    };
}

std::vector<Ellipsoid> porous_bean(double radius_mm, index_t num_voids, std::uint64_t seed)
{
    require(radius_mm > 0.0, "porous_bean: radius must be positive");
    require(num_voids >= 0, "porous_bean: num_voids must be non-negative");
    std::vector<Ellipsoid> e;
    // Bean body: an elongated ellipsoid, density ~ roasted coffee (arbitrary
    // attenuation units).
    e.push_back({0.8, 0.55 * radius_mm, 0.9 * radius_mm, 0.45 * radius_mm, 0.0, 0.0, 0.0, 0.0});
    // Centre crease: a flattened low-density slab-like ellipsoid.
    e.push_back({-0.5, 0.06 * radius_mm, 0.75 * radius_mm, 0.3 * radius_mm, 0.0, 0.0, 0.0, 0.0});

    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> upos(-0.6, 0.6);
    std::uniform_real_distribution<double> usize(0.02, 0.08);
    std::uniform_real_distribution<double> uang(0.0, std::numbers::pi);
    for (index_t i = 0; i < num_voids; ++i) {
        Ellipsoid v;
        v.density = -0.6;  // pores: partial density drop
        v.a = usize(rng) * radius_mm;
        v.b = usize(rng) * radius_mm;
        v.c = usize(rng) * radius_mm;
        v.cx = upos(rng) * 0.5 * radius_mm;
        v.cy = upos(rng) * 0.8 * radius_mm;
        v.cz = upos(rng) * 0.4 * radius_mm;
        v.phi = uang(rng);
        e.push_back(v);
    }
    return e;
}

namespace {

/// An ellipsoid with the cosine and sine of its rotation, computed once per
/// call so that no ray or voxel pays for trig.
struct Prepared : Ellipsoid {
    double cos_phi = 0.0, sin_phi = 0.0;
};

std::vector<Prepared> prepare(const std::vector<Ellipsoid>& es)
{
    std::vector<Prepared> out;
    out.reserve(es.size());
    for (const Ellipsoid& e : es) out.push_back({e, std::cos(e.phi), std::sin(e.phi)});
    return out;
}

/// Transform a world point into the ellipsoid's unit-sphere frame.
inline Vec3 to_unit_frame(const Prepared& e, const Vec3& p)
{
    const double c = e.cos_phi;
    const double s = e.sin_phi;
    const double dx = p.x - e.cx;
    const double dy = p.y - e.cy;
    const double dz = p.z - e.cz;
    // Inverse rotation (by -phi) then semi-axis normalisation.
    return {(c * dx + s * dy) / e.a, (-s * dx + c * dy) / e.b, dz / e.c};
}

double density(std::span<const Prepared> es, const Vec3& p)
{
    double d = 0.0;
    for (const Prepared& e : es) {
        const Vec3 q = to_unit_frame(e, p);
        if (q.dot(q) <= 1.0) d += e.density;
    }
    return d;
}

// Out of line on purpose: inlined into forward_project's loop, GCC fuses
// products across the call (FMA contraction at -march=native) and a
// grazing ray can land on the other side of a float rounding boundary,
// which changes the projection data.  For the same reason the ray origin
// stays per ray: hoisted out to once per view, to_unit_frame(e, src) is
// compiled in the caller's context, where the SLP vectoriser may pair the
// x and y lanes and fuse the other product.
[[gnu::noinline]] double integrate(std::span<const Prepared> es, const Vec3& src, const Vec3& dst)
{
    const Vec3 dir = dst - src;
    const double len = dir.norm();
    if (len == 0.0) return 0.0;

    double total = 0.0;
    for (const Prepared& e : es) {
        // Ray in the unit-sphere frame: o + t * d, t in [0, 1].
        const Vec3 o = to_unit_frame(e, src);
        const Vec3 p1 = to_unit_frame(e, dst);
        const Vec3 d = p1 - o;
        const double a = d.dot(d);
        if (a == 0.0) continue;
        const double b = 2.0 * o.dot(d);
        const double c = o.dot(o) - 1.0;
        const double disc = b * b - 4.0 * a * c;
        if (disc <= 0.0) continue;
        const double sq = std::sqrt(disc);
        double t0 = (-b - sq) / (2.0 * a);
        double t1 = (-b + sq) / (2.0 * a);
        t0 = std::max(t0, 0.0);
        t1 = std::min(t1, 1.0);
        if (t1 > t0) total += e.density * (t1 - t0) * len;
    }
    return total;
}

/// Detector pixels whose rays may meet an ellipsoid in one view, as
/// inclusive index ranges (empty when lo > hi).
struct Footprint {
    index_t u_lo, u_hi, v_lo, v_hi;
};

/// A conservative footprint of `e` in the view whose Eq. 8 matrix is `m`:
/// the bounding box of the detector images of the corners of the cube
/// centre ± max(a, b, c), which holds the ellipsoid at any phi, padded by
/// one pixel against rounding.  With every corner in front of the source,
/// perspective maps the cube onto the hull of its corners' images, so no
/// ray outside the box meets the ellipsoid.  A corner at or behind the
/// source, or a non-finite image, gives the whole detector.
Footprint footprint(const Prepared& e, const CbctGeometry& g, const Mat34& m)
{
    const double r = std::max({std::fabs(e.a), std::fabs(e.b), std::fabs(e.c)});
    // project() takes (fractional) voxel indices of g's grid.
    const auto index = [](double mm, double pitch, index_t n) {
        return mm / pitch + (static_cast<double>(n) - 1.0) / 2.0;
    };
    double u0 = std::numeric_limits<double>::infinity(), u1 = -u0, v0 = u0, v1 = -u0;
    for (int k = 0; k < 8; ++k) {
        const Projected p = project(m, index(e.cx + ((k & 1) != 0 ? r : -r), g.dx, g.vol.x),
                                    index(e.cy + ((k & 2) != 0 ? r : -r), g.dy, g.vol.y),
                                    index(e.cz + ((k & 4) != 0 ? r : -r), g.dz, g.vol.z));
        if (!(p.z > 0.0 && std::isfinite(p.x) && std::isfinite(p.y)))
            return {0, g.nu - 1, 0, g.nv - 1};
        u0 = std::min(u0, p.x);
        u1 = std::max(u1, p.x);
        v0 = std::min(v0, p.y);
        v1 = std::max(v1, p.y);
    }
    const auto lo = [](double at, index_t n) {
        return static_cast<index_t>(std::clamp(std::floor(at) - 1.0, 0.0, static_cast<double>(n)));
    };
    const auto hi = [](double at, index_t n) {
        return static_cast<index_t>(
            std::clamp(std::ceil(at) + 1.0, -1.0, static_cast<double>(n - 1)));
    };
    return {lo(u0, g.nu), hi(u1, g.nu), lo(v0, g.nv), hi(v1, g.nv)};
}

}  // namespace

double density_at(const std::vector<Ellipsoid>& es, double x, double y, double z)
{
    return density(prepare(es), {x, y, z});
}

double line_integral(const std::vector<Ellipsoid>& es, const Vec3& src, const Vec3& dst)
{
    return integrate(prepare(es), src, dst);
}

[[gnu::noinline]] ViewRays::ViewRays(const CbctGeometry& geometry, index_t s) : g(&geometry)
{
    const double phi = geometry.angle_of(s);
    cph = std::cos(phi);
    sph = std::sin(phi);
    cu = (static_cast<double>(geometry.nu) - 1.0) / 2.0 + geometry.sigma_u;
    cv = (static_cast<double>(geometry.nv) - 1.0) / 2.0 + geometry.sigma_v;
    // Rz(-phi) of the source at phi = 0.  The fused products are the ones
    // GCC's contraction picked when these sat in forward_project's loop.
    src = {simd::fmadd(sph, -geometry.dso, cph * -geometry.sigma_cor),
           simd::fmadd(cph, -geometry.dso, sph * geometry.sigma_cor), 0.0};
}

[[gnu::noinline]] Vec3 ViewRays::pixel(index_t u, index_t v) const
{
    const double px = simd::fmadd(static_cast<double>(u) - cu, g->du, -g->sigma_cor);
    const double py = g->dsd - g->dso;
    const double pz = (static_cast<double>(v) - cv) * g->dv;
    // Rz(-phi)
    return {simd::fmadd(cph, px, sph * py), simd::fmadd(-sph, px, cph * py), pz};
}

Volume voxelize(const std::vector<Ellipsoid>& es, const CbctGeometry& g)
{
    g.validate();
    Volume v(g.vol);
    const std::vector<Prepared> all = prepare(es);
    const double ox = (static_cast<double>(g.vol.x) - 1.0) / 2.0;
    const double oy = (static_cast<double>(g.vol.y) - 1.0) / 2.0;
    const double oz = (static_cast<double>(g.vol.z) - 1.0) / 2.0;
    parallel::parallel_for(g.vol.z, 1, [&](index_t k, std::size_t) {
        for (index_t j = 0; j < g.vol.y; ++j)
            for (index_t i = 0; i < g.vol.x; ++i)
                v.at(i, j, k) = static_cast<float>(
                    density(all, {(static_cast<double>(i) - ox) * g.dx,
                                  (static_cast<double>(j) - oy) * g.dy,
                                  (static_cast<double>(k) - oz) * g.dz}));
    });
    return v;
}

ProjectionStack forward_project(const std::vector<Ellipsoid>& es, const CbctGeometry& g,
                                Range views, Range band)
{
    g.validate();
    require(!views.empty() && views.lo >= 0 && views.hi <= g.num_proj,
            "forward_project: views out of range");
    require(!band.empty() && band.lo >= 0 && band.hi <= g.nv, "forward_project: band out of range");

    ProjectionStack stack(views.length(), band, g.nu);  // zero: the empty sum
    const std::vector<Prepared> all = prepare(es);
    const std::size_t n = all.size();
    // Per-view tables, one slice per pool slot: the view's footprints, the
    // ellipsoids a row's footprints hold, and the run a pixel span meets.
    const std::size_t slots = parallel::width();
    scratch::Buffer<Footprint> footprints(slots * n);
    scratch::Buffer<std::size_t> row_ids(slots * n);
    scratch::Buffer<Prepared> runs(slots * n);

    // One pool job over the band's views, not one per view: a view's rows
    // are too few to pay a wake-up each.
    parallel::parallel_for(views.length(), 1, [&](index_t at, std::size_t slot) {
        const index_t s = views.lo + at;
        const ViewRays view(g, s);
        const Mat34 matrix = projection_matrix(g, g.angle_of(s));
        Footprint* const fp = footprints.data() + slot * n;
        std::size_t* const ids = row_ids.data() + slot * n;
        Prepared* const run = runs.data() + slot * n;
        for (std::size_t i = 0; i < n; ++i) fp[i] = footprint(all[i], g, matrix);
        for (index_t v = band.lo; v < band.hi; ++v) {
            std::size_t k = 0;
            for (std::size_t i = 0; i < n; ++i)
                if (fp[i].v_lo <= v && v <= fp[i].v_hi) ids[k++] = i;
            auto row = stack.row(at, v);
            // Pixels [u, end) meet the same ellipsoids, in index order: a
            // span ends where a footprint of the row begins or ends.
            for (index_t u = 0; u < g.nu;) {
                index_t end = g.nu;
                std::size_t m = 0;
                for (std::size_t j = 0; j < k; ++j) {
                    const Footprint& f = fp[ids[j]];
                    if (u < f.u_lo) {
                        end = std::min(end, f.u_lo);
                    } else if (u <= f.u_hi) {
                        run[m++] = all[ids[j]];
                        end = std::min(end, f.u_hi + 1);
                    }
                }
                if (m == 0) {
                    u = end;
                    continue;
                }
                const std::span<const Prepared> on(run, m);
                for (; u < end; ++u)
                    row[static_cast<std::size_t>(u)] =
                        static_cast<float>(integrate(on, view.src, view.pixel(u, v)));
            }
        }
    });
    return stack;
}

ProjectionStack forward_project(const std::vector<Ellipsoid>& es, const CbctGeometry& g)
{
    return forward_project(es, g, Range{0, g.num_proj}, Range{0, g.nv});
}

}  // namespace xct::phantom
