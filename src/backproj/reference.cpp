#include "backproj/reference.hpp"

#include <cmath>

#include "core/parallel.hpp"

namespace xct::backproj {

namespace {

/// Single clamped pixel fetch (v global, clamped to the resident band;
/// u clamped to the detector width) — mirrors the texture clamp mode.
inline float fetch(const ProjectionStack& p, index_t s, index_t u, index_t v)
{
    const index_t lo = p.row_begin();
    const index_t hi = lo + p.rows() - 1;
    v = v < lo ? lo : (v > hi ? hi : v);
    u = u < 0 ? 0 : (u >= p.cols() ? p.cols() - 1 : u);
    return p.at(s, v, u);
}

}  // namespace

float sub_pixel(const ProjectionStack& p, index_t s, float x, float y)
{
    // Algorithm 1, SubPixel: bilinear interpolation at (x, y).
    const index_t iu = static_cast<index_t>(std::floor(x));
    const index_t iv = static_cast<index_t>(std::floor(y));
    const float eu = x - static_cast<float>(iu);
    const float ev = y - static_cast<float>(iv);
    const float t1 = fetch(p, s, iu, iv) * (1.0f - eu) + fetch(p, s, iu + 1, iv) * eu;
    const float t2 = fetch(p, s, iu, iv + 1) * (1.0f - eu) + fetch(p, s, iu + 1, iv + 1) * eu;
    return t1 * (1.0f - ev) + t2 * ev;
}

void backproject_reference(const ProjectionStack& p, std::span<const Mat34> mats, Volume& vol,
                           index_t vol_z_offset, index_t nu, index_t nv)
{
    require(static_cast<index_t>(mats.size()) == p.views(),
            "backproject_reference: one matrix per view required");
    const Dim3 d = vol.size();

    for (index_t s = 0; s < p.views(); ++s) {
        // Single-precision copy of the matrix rows (the data path is float
        // end-to-end, matching the CUDA kernel).
        const Mat34& m = mats[static_cast<std::size_t>(s)];
        parallel::parallel_for(d.z, 1, [&](index_t k, std::size_t) {
            const float kk = static_cast<float>(k + vol_z_offset);
            for (index_t j = 0; j < d.y; ++j) {
                const float jj = static_cast<float>(j);
                for (index_t i = 0; i < d.x; ++i) {
                    const float ii = static_cast<float>(i);
                    // Eq. 8 (Algorithm 1 lines 6-8).
                    const float z = static_cast<float>(m[2].x) * ii + static_cast<float>(m[2].y) * jj +
                                    static_cast<float>(m[2].z) * kk + static_cast<float>(m[2].w);
                    if (z <= 0.0f) continue;  // behind the source
                    const float x = (static_cast<float>(m[0].x) * ii + static_cast<float>(m[0].y) * jj +
                                     static_cast<float>(m[0].z) * kk + static_cast<float>(m[0].w)) /
                                    z;
                    const float y = (static_cast<float>(m[1].x) * ii + static_cast<float>(m[1].y) * jj +
                                     static_cast<float>(m[1].z) * kk + static_cast<float>(m[1].w)) /
                                    z;
                    if (x < 0.0f || x > static_cast<float>(nu - 1) || y < 0.0f ||
                        y > static_cast<float>(nv - 1))
                        continue;  // projects off the detector
                    vol.at(i, j, k) += 1.0f / (z * z) * sub_pixel(p, s, x, y);
                }
            }
        });
    }
}

void backproject_reference(const ProjectionStack& p, std::span<const Mat34> mats,
                           const CbctGeometry& g, Volume& vol)
{
    require(vol.size() == g.vol, "backproject_reference: volume size mismatch");
    backproject_reference(p, mats, vol, 0, g.nu, g.nv);
}

}  // namespace xct::backproj
