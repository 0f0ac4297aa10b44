// The analytic evaluation of ellipsoid phantoms: point densities, the
// voxelizer, exact line integrals and the cone-beam forward projector
// (DESIGN.md §3e, "Phantom projector").
//
// One arithmetic rule makes the bits: this file compiles with
// -ffp-contract=off (src/phantom/CMakeLists.txt), so a product is fused
// exactly where it is written as fmadd, in every build and at every call
// site.  The fused products are the ones GCC's contraction chose when the
// bits rested on it, so no output moved when the rule was written down.
#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>

#include "core/parallel.hpp"
#include "core/scratch.hpp"
#include "core/simd.hpp"
#include "phantom/shepp_logan.hpp"

namespace xct::phantom {
namespace {

using simd::VecD;

// One-lane forms of the simd::VecD operations, so that one template runs
// a single ray (double) or simd::kLanesD rays (VecD, found by ADL).
double fmadd(double a, double b, double c) { return simd::fmadd(a, b, c); }
double sqrt_(double x) { return std::sqrt(x); }
bool cmp_gt(double a, double b) { return a > b; }
double blend(bool m, double a, double b) { return m ? a : b; }
bool none(bool m) { return !m; }

template <typename V>
V lanes(double x)
{
    if constexpr (std::is_same_v<V, double>)
        return x;
    else
        return simd::splat_d(x);
}

/// x0·x1 + y0·y1 + z0·z1 as fma(z0, z1, fma(x0, x1, y0·y1)).
template <typename V>
V dot3(V x0, V y0, V z0, V x1, V y1, V z1)
{
    return fmadd(z0, z1, fmadd(x0, x1, y0 * y1));
}

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

/// x and y of world points (x, y, ·) in the ellipsoid's unit-sphere frame:
/// the inverse rotation (by -phi), then the semi-axes.
template <typename V>
std::pair<V, V> unit_xy(const Prepared& e, V x, V y)
{
    const V dx = x - lanes<V>(e.cx), dy = y - lanes<V>(e.cy);
    const V c = lanes<V>(e.cos_phi), s = lanes<V>(e.sin_phi);
    return {fmadd(c, dx, s * dy) / lanes<V>(e.a), fmadd(-s, dx, c * dy) / lanes<V>(e.b)};
}

/// z of world height z in the ellipsoid's unit-sphere frame.
double unit_z(const Prepared& e, double z) { return (z - e.cz) / e.c; }

double density(std::span<const Prepared> es, const Vec3& p)
{
    double d = 0.0;
    for (const Prepared& e : es) {
        const auto [x, y] = unit_xy(e, p.x, p.y);
        const double z = unit_z(e, p.z);
        if (dot3(x, y, z, x, y, z) <= 1.0) d += e.density;
    }
    return d;
}

/// An ellipsoid seen from a ray source: the source o in the unit frame and
/// the constant term o·o - 1 of the ray quadratic, once per (view,
/// ellipsoid); and d.z of the rays that end on one detector row, where d
/// is the far end less o in the unit frame.
struct Frame : Prepared {
    double ox = 0.0, oy = 0.0, oz = 0.0;
    double quad_c = 0.0;
    double dz = 0.0;
};

Frame frame(const Prepared& e, const Vec3& src)
{
    const auto [ox, oy] = unit_xy(e, src.x, src.y);
    const double oz = unit_z(e, src.z);
    return {e, ox, oy, oz, dot3(ox, oy, oz, ox, oy, oz) - 1.0};
}

/// The parts of the ray quadratic's a = d·d and b = 2 o·d that the far
/// end's x and y fix: fma(dx, dx, dy·dy) and fma(ox, dx, oy·dy), where d
/// is the far end less o in the unit frame.  A view's rays share them
/// along a detector column.
template <typename V>
struct Column {
    V dd, od;
};

template <typename V>
Column<V> column(const Frame& f, V x, V y)
{
    const auto [px, py] = unit_xy(f, x, y);
    const V ox = lanes<V>(f.ox), oy = lanes<V>(f.oy);
    const V dx = px - ox, dy = py - oy;
    return {fmadd(dx, dx, dy * dy), fmadd(ox, dx, oy * dy)};
}

/// `total` plus f's density times the length of the rays of column `c`
/// that end on f's row, lengths `len`, inside f.  Each lane is one ray;
/// a lane that misses f keeps its total (a blend, not an added zero).
template <typename V>
V add_chord(V total, const Frame& f, const Column<V>& c, V len)
{
    // The ray o + t d, t in [0, 1], meets the unit sphere where
    // a t^2 + b t + c = 0.
    const V zero = lanes<V>(0.0), one = lanes<V>(1.0), dz = lanes<V>(f.dz);
    const V a = fmadd(dz, dz, c.dd);
    const V od = fmadd(lanes<V>(f.oz), dz, c.od);
    const V b = od + od;
    const V disc = fmadd(b, b, -((a * lanes<V>(4.0)) * lanes<V>(f.quad_c)));
    const auto live = cmp_gt(a, zero) & cmp_gt(disc, zero);
    if (none(live)) return total;
    const V sq = sqrt_(disc);
    const V two_a = a + a;
    V t0 = (-b - sq) / two_a;
    V t1 = (-b + sq) / two_a;
    t0 = blend(cmp_gt(zero, t0), zero, t0);  // std::max(t0, 0.0)
    t1 = blend(cmp_gt(t1, one), one, t1);    // std::min(t1, 1.0)
    return blend(live & cmp_gt(t1, t0), fmadd((t1 - t0) * lanes<V>(f.density), len, total),
                 total);
}

/// The line integral from the chords' sum: 0 for a ray of length 0.
template <typename V>
V line_sum(V total, V len)
{
    return blend(cmp_gt(len, lanes<V>(0.0)), total, lanes<V>(0.0));
}

/// x and y of the far ends of the rays of detector columns `u` in view `r`.
template <typename V>
std::pair<V, V> far_xy(const ViewRays& r, V u)
{
    const CbctGeometry& g = *r.g;
    const V px = fmadd(u - lanes<V>(r.cu), lanes<V>(g.du), lanes<V>(-g.sigma_cor));
    const double py = g.dsd - g.dso;
    // Rz(-phi)
    return {fmadd(lanes<V>(r.cph), px, lanes<V>(r.sph * py)),
            fmadd(lanes<V>(-r.sph), px, lanes<V>(r.cph * py))};
}

/// z of the far ends of the rays of detector row `v` in view `r`.
double far_z(const ViewRays& r, index_t v) { return (static_cast<double>(v) - r.cv) * r.g->dv; }

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
    const Vec3 dir = dst - src;
    const double len = std::sqrt(dot3(dir.x, dir.y, dir.z, dir.x, dir.y, dir.z));
    double total = 0.0;
    for (const Prepared& e : prepare(es)) {
        Frame f = frame(e, src);
        f.dz = unit_z(e, dst.z) - f.oz;
        total = add_chord(total, f, column(f, dst.x, dst.y), len);
    }
    return line_sum(total, len);
}

ViewRays::ViewRays(const CbctGeometry& geometry, index_t s) : g(&geometry)
{
    const double phi = geometry.angle_of(s);
    cph = std::cos(phi);
    sph = std::sin(phi);
    cu = (static_cast<double>(geometry.nu) - 1.0) / 2.0 + geometry.sigma_u;
    cv = (static_cast<double>(geometry.nv) - 1.0) / 2.0 + geometry.sigma_v;
    // Rz(-phi) of the source at phi = 0.
    src = {fmadd(sph, -geometry.dso, cph * -geometry.sigma_cor),
           fmadd(cph, -geometry.dso, sph * geometry.sigma_cor), 0.0};
}

Vec3 ViewRays::pixel(index_t u, index_t v) const
{
    const auto [x, y] = far_xy(*this, static_cast<double>(u));
    return {x, y, far_z(*this, v)};
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
    // Pixels go W to a vector: vector q holds detector columns [q W, q W + W).
    constexpr index_t W = simd::kLanesD;
    const index_t vectors = (g.nu + W - 1) / W;
    const auto stride = static_cast<std::size_t>(vectors);
    // Per-view tables, one slice per pool slot: each ellipsoid's footprint,
    // frame and columns (those of the vectors its footprint meets), the
    // rays' squared length in the xy plane per vector, and the ellipsoids
    // whose footprint holds a row.
    const std::size_t slots = parallel::width();
    scratch::Buffer<Footprint> footprints(slots * n);
    scratch::Buffer<Frame> frames(slots * n);
    scratch::Buffer<Column<VecD>> columns(slots * n * stride);
    scratch::Buffer<VecD> plane_len2(slots * stride);
    scratch::Buffer<std::size_t> row_ids(slots * n);
    double offsets[W];
    for (index_t l = 0; l < W; ++l) offsets[l] = static_cast<double>(l);
    const VecD lane_u = simd::load(offsets);

    // One pool job over the band's views, not one per view: a view's rows
    // are too few to pay a wake-up each.
    parallel::parallel_for(views.length(), 1, [&](index_t at, std::size_t slot) {
        const index_t s = views.lo + at;
        const ViewRays view(g, s);
        const Mat34 matrix = projection_matrix(g, g.angle_of(s));
        Footprint* const fp = footprints.data() + slot * n;
        Frame* const seen = frames.data() + slot * n;
        Column<VecD>* const cols = columns.data() + slot * n * stride;
        VecD* const len2 = plane_len2.data() + slot * stride;
        std::size_t* const ids = row_ids.data() + slot * n;
        const auto far = [&](index_t q) {
            return far_xy(view, simd::splat_d(static_cast<double>(q * W)) + lane_u);
        };
        // |far end - source|^2 = fma(dz, dz, len2), len2 the x and y part.
        const VecD sx = simd::splat_d(view.src.x), sy = simd::splat_d(view.src.y);
        for (index_t q = 0; q < vectors; ++q) {
            const auto [x, y] = far(q);
            len2[q] = fmadd(x - sx, x - sx, (y - sy) * (y - sy));
        }
        for (std::size_t i = 0; i < n; ++i) {
            fp[i] = footprint(all[i], g, matrix);
            seen[i] = frame(all[i], view.src);
            for (index_t q = fp[i].u_lo / W; q * W <= fp[i].u_hi; ++q) {
                const auto [x, y] = far(q);
                cols[i * stride + static_cast<std::size_t>(q)] = column(seen[i], x, y);
            }
        }
        for (index_t v = band.lo; v < band.hi; ++v) {
            const double z = far_z(view, v);
            std::size_t k = 0;
            for (std::size_t i = 0; i < n; ++i)
                if (fp[i].v_lo <= v && v <= fp[i].v_hi) {
                    seen[i].dz = unit_z(all[i], z) - seen[i].oz;
                    ids[k++] = i;
                }
            if (k == 0) continue;
            const VecD dz = simd::splat_d(z - view.src.z);
            auto row = stack.row(at, v);
            // Each vector's pixels add the chords of every ellipsoid whose
            // footprint holds one of them, in index order: an ellipsoid
            // outside a pixel's footprint is one its quadratic misses, so
            // that lane keeps its sum.
            for (index_t q = 0; q < vectors; ++q) {
                const index_t u = q * W, last = std::min(u + W, g.nu) - 1;
                const VecD len = simd::sqrt_(fmadd(dz, dz, len2[q]));
                VecD total = simd::splat_d(0.0);
                bool met = false;
                for (std::size_t j = 0; j < k; ++j) {
                    const std::size_t i = ids[j];
                    if (fp[i].u_lo > last || u > fp[i].u_hi) continue;
                    const Column<VecD>& c = cols[i * stride + static_cast<std::size_t>(q)];
                    total = add_chord(total, seen[i], c, len);
                    met = true;
                }
                if (!met) continue;
                double sums[W];
                simd::store(sums, line_sum(total, len));
                for (index_t l = 0; l <= last - u; ++l)
                    row[static_cast<std::size_t>(u + l)] = static_cast<float>(sums[l]);
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
