#include "projector/forward.hpp"

#include <algorithm>
#include <cmath>

#include "core/parallel.hpp"

namespace xct::projector {

float sample_trilinear(const Volume& vol, double i, double j, double k)
{
    const Dim3 d = vol.size();
    if (i < 0.0 || j < 0.0 || k < 0.0 || i > static_cast<double>(d.x - 1) ||
        j > static_cast<double>(d.y - 1) || k > static_cast<double>(d.z - 1))
        return 0.0f;
    const index_t i0 = std::min<index_t>(static_cast<index_t>(i), d.x - 2 < 0 ? 0 : d.x - 2);
    const index_t j0 = std::min<index_t>(static_cast<index_t>(j), d.y - 2 < 0 ? 0 : d.y - 2);
    const index_t k0 = std::min<index_t>(static_cast<index_t>(k), d.z - 2 < 0 ? 0 : d.z - 2);
    const double fi = i - static_cast<double>(i0);
    const double fj = j - static_cast<double>(j0);
    const double fk = k - static_cast<double>(k0);
    const index_t i1 = std::min(i0 + 1, d.x - 1);
    const index_t j1 = std::min(j0 + 1, d.y - 1);
    const index_t k1 = std::min(k0 + 1, d.z - 1);

    const double c00 = vol.at(i0, j0, k0) * (1 - fi) + vol.at(i1, j0, k0) * fi;
    const double c10 = vol.at(i0, j1, k0) * (1 - fi) + vol.at(i1, j1, k0) * fi;
    const double c01 = vol.at(i0, j0, k1) * (1 - fi) + vol.at(i1, j0, k1) * fi;
    const double c11 = vol.at(i0, j1, k1) * (1 - fi) + vol.at(i1, j1, k1) * fi;
    const double c0 = c00 * (1 - fj) + c10 * fj;
    const double c1 = c01 * (1 - fj) + c11 * fj;
    return static_cast<float>(c0 * (1 - fk) + c1 * fk);
}

ProjectionStack forward_project(const Volume& vol, const CbctGeometry& g, Range views, Range band,
                                double step_mm)
{
    g.validate();
    require(vol.size() == g.vol, "forward_project: volume must match the geometry grid");
    require(step_mm > 0.0, "forward_project: step must be positive");
    require(!views.empty() && views.lo >= 0 && views.hi <= g.num_proj,
            "forward_project: views out of range");
    require(!band.empty() && band.lo >= 0 && band.hi <= g.nv, "forward_project: band out of range");

    ProjectionStack stack(views.length(), band, g.nu);
    const double cu = (static_cast<double>(g.nu) - 1.0) / 2.0 + g.sigma_u;
    const double cv = (static_cast<double>(g.nv) - 1.0) / 2.0 + g.sigma_v;
    const double ox = (static_cast<double>(g.vol.x) - 1.0) / 2.0;
    const double oy = (static_cast<double>(g.vol.y) - 1.0) / 2.0;
    const double oz = (static_cast<double>(g.vol.z) - 1.0) / 2.0;

    // Conservative bound on the object extent: the grid's bounding sphere.
    const double rx = g.dx * (static_cast<double>(g.vol.x) - 1.0) / 2.0;
    const double ry = g.dy * (static_cast<double>(g.vol.y) - 1.0) / 2.0;
    const double rz = g.dz * (static_cast<double>(g.vol.z) - 1.0) / 2.0;
    const double rad = std::sqrt(rx * rx + ry * ry + rz * rz);

    // One pool job over the band's views, not one per view.
    parallel::parallel_for(views.length(), 1, [&](index_t at, std::size_t) {
        const double phi = g.angle_of(views.lo + at);
        const double cph = std::cos(phi);
        const double sph = std::sin(phi);
        const auto rot = [&](double x, double y, double z) -> Vec3 {  // Rz(-phi): world -> object
            return {cph * x + sph * y, -sph * x + cph * y, z};
        };
        const Vec3 src = rot(-g.sigma_cor, -g.dso, 0.0);
        for (index_t v = band.lo; v < band.hi; ++v) {
            const double pz = (static_cast<double>(v) - cv) * g.dv;
            auto row = stack.row(at, v);
            for (index_t u = 0; u < g.nu; ++u) {
                const double px = (static_cast<double>(u) - cu) * g.du - g.sigma_cor;
                const Vec3 dst = rot(px, g.dsd - g.dso, pz);
                const Vec3 dir = dst - src;
                const double len = dir.norm();
                // Restrict marching to the chord intersecting the bounding
                // sphere (huge saving: the detector is far away).
                const Vec3 unit = dir * (1.0 / len);
                const double tc = (Vec3{0, 0, 0} - src).dot(unit);
                const double d2 = src.dot(src) - tc * tc;
                if (d2 >= rad * rad) {
                    row[static_cast<std::size_t>(u)] = 0.0f;
                    continue;
                }
                const double half = std::sqrt(rad * rad - d2);
                const double t0 = std::max(0.0, tc - half);
                const double t1 = std::min(len, tc + half);
                double acc = 0.0;
                for (double t = t0; t < t1; t += step_mm) {
                    const Vec3 p = src + unit * (t + step_mm / 2.0);
                    acc += sample_trilinear(vol, p.x / g.dx + ox, p.y / g.dy + oy, p.z / g.dz + oz);
                }
                row[static_cast<std::size_t>(u)] = static_cast<float>(acc * step_mm);
            }
        }
    });
    return stack;
}

ProjectionStack forward_project(const Volume& vol, const CbctGeometry& g)
{
    const double step = 0.5 * std::min({g.dx, g.dy, g.dz});
    return forward_project(vol, g, Range{0, g.num_proj}, Range{0, g.nv}, step);
}

}  // namespace xct::projector
