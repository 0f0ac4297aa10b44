#include "phantom/shepp_logan.hpp"

#include <cmath>
#include <numbers>
#include <random>

#include "core/parallel.hpp"

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

/// Transform a world point into the ellipsoid's unit-sphere frame.
inline Vec3 to_unit_frame(const Ellipsoid& e, const Vec3& p)
{
    const double c = std::cos(e.phi);
    const double s = std::sin(e.phi);
    const double dx = p.x - e.cx;
    const double dy = p.y - e.cy;
    const double dz = p.z - e.cz;
    // Inverse rotation (by -phi) then semi-axis normalisation.
    return {(c * dx + s * dy) / e.a, (-s * dx + c * dy) / e.b, dz / e.c};
}

}  // namespace

double density_at(const std::vector<Ellipsoid>& es, double x, double y, double z)
{
    double d = 0.0;
    const Vec3 p{x, y, z};
    for (const Ellipsoid& e : es) {
        const Vec3 q = to_unit_frame(e, p);
        if (q.dot(q) <= 1.0) d += e.density;
    }
    return d;
}

// Out of line on purpose: inlined into forward_project's loop, GCC fuses
// products across the call (FMA contraction at -march=native) and a
// grazing ray can land on the other side of a float rounding boundary,
// which changes the projection data.
[[gnu::noinline]] double line_integral(const std::vector<Ellipsoid>& es, const Vec3& src,
                                       const Vec3& dst)
{
    const Vec3 dir = dst - src;
    const double len = dir.norm();
    if (len == 0.0) return 0.0;

    double total = 0.0;
    for (const Ellipsoid& e : es) {
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

Volume voxelize(const std::vector<Ellipsoid>& es, const CbctGeometry& g)
{
    g.validate();
    Volume v(g.vol);
    const double ox = (static_cast<double>(g.vol.x) - 1.0) / 2.0;
    const double oy = (static_cast<double>(g.vol.y) - 1.0) / 2.0;
    const double oz = (static_cast<double>(g.vol.z) - 1.0) / 2.0;
    parallel::parallel_for(g.vol.z, 1, [&](index_t k, std::size_t) {
        for (index_t j = 0; j < g.vol.y; ++j)
            for (index_t i = 0; i < g.vol.x; ++i)
                v.at(i, j, k) = static_cast<float>(
                    density_at(es, (static_cast<double>(i) - ox) * g.dx,
                               (static_cast<double>(j) - oy) * g.dy,
                               (static_cast<double>(k) - oz) * g.dz));
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

    ProjectionStack stack(views.length(), band, g.nu);
    const double cu = (static_cast<double>(g.nu) - 1.0) / 2.0 + g.sigma_u;
    const double cv = (static_cast<double>(g.nv) - 1.0) / 2.0 + g.sigma_v;

    // One pool job over the band's views, not one per view: a view's rows
    // are too few to pay a wake-up each.
    parallel::parallel_for(views.length(), 1, [&](index_t at, std::size_t) {
        const index_t s = views.lo + at;
        const double phi = g.angle_of(s);
        const double cph = std::cos(phi);
        const double sph = std::sin(phi);
        // Object frame (the object rotates by +phi, so source and detector
        // counter-rotate by -phi).  World positions at phi = 0:
        //   source          (-sigma_cor, -Dso, 0)
        //   pixel (u, v)    ((u - cu) du - sigma_cor, Dsd - Dso, (v - cv) dv)
        const auto rot = [&](double x, double y, double z) -> Vec3 {
            // Rz(-phi)
            return {cph * x + sph * y, -sph * x + cph * y, z};
        };
        const Vec3 src = rot(-g.sigma_cor, -g.dso, 0.0);
        for (index_t v = band.lo; v < band.hi; ++v) {
            const double pz = (static_cast<double>(v) - cv) * g.dv;
            auto row = stack.row(at, v);
            for (index_t u = 0; u < g.nu; ++u) {
                const double px = (static_cast<double>(u) - cu) * g.du - g.sigma_cor;
                const Vec3 dst = rot(px, g.dsd - g.dso, pz);
                row[static_cast<std::size_t>(u)] =
                    static_cast<float>(line_integral(es, src, dst));
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
