#include "phantom/shepp_logan.hpp"

#include <numbers>
#include <random>

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

}  // namespace xct::phantom
