#include "backproj/rtk_style.hpp"

#include <algorithm>
#include <cmath>

#include "core/parallel.hpp"

namespace xct::backproj {

namespace {

inline float tex_bilinear(const sim::Texture3& tex, float x, float y, index_t s)
{
    const float fx = std::floor(x);
    const float fy = std::floor(y);
    const float du = x - fx;
    const float dv = y - fy;
    const index_t iu = static_cast<index_t>(fx);
    const index_t iv = static_cast<index_t>(fy);
    // Layout here: x = column, y = view, z = detector row (full detector, no
    // circular reuse — depth equals Nv so the mod is the identity).
    const float v0 = tex.fetch(iu, s, iv);
    const float v1 = tex.fetch(iu + 1, s, iv);
    const float v2 = tex.fetch(iu, s, iv + 1);
    const float v3 = tex.fetch(iu + 1, s, iv + 1);
    return (v0 * (1.0f - du) + v1 * du) * (1.0f - dv) + (v2 * (1.0f - du) + v3 * du) * dv;
}

}  // namespace

void backproject_rtk_style(sim::Device& dev, const ProjectionStack& p, std::span<const Mat34> mats,
                           const CbctGeometry& g, Volume& vol, index_t batch_views)
{
    require(static_cast<index_t>(mats.size()) == p.views(),
            "backproject_rtk_style: one matrix per view required");
    require(p.row_begin() == 0 && p.rows() == g.nv,
            "backproject_rtk_style: baseline needs full detector frames");
    require(batch_views > 0, "backproject_rtk_style: batch_views must be positive");
    require(vol.size() == g.vol, "backproject_rtk_style: volume size mismatch");

    // Whole volume resident on the device — the baseline's defining
    // constraint.  Throws DeviceOutOfMemory if it does not fit.
    sim::DeviceBuffer dvol(dev, vol.count());
    dvol.fill(0.0f);

    const Dim3 d = vol.size();
    for (index_t s0 = 0; s0 < p.views(); s0 += batch_views) {
        const index_t nb = std::min(batch_views, p.views() - s0);
        // One batch of full frames, uploaded as a (depth = Nv) texture.
        sim::Texture3 tex(dev, g.nu, nb, g.nv);
        std::vector<float> plane(static_cast<std::size_t>(g.nu * nb));
        for (index_t v = 0; v < g.nv; ++v) {
            for (index_t b = 0; b < nb; ++b) {
                const auto row = p.row(s0 + b, v);
                std::copy(row.begin(), row.end(),
                          plane.begin() + static_cast<std::ptrdiff_t>(b * g.nu));
            }
            tex.copy_planes(plane, v, 1);
        }

        std::span<float> acc = dvol.device_span();
        parallel::parallel_for(d.z * d.y, 1, [&](index_t kj, std::size_t) {
            const index_t k = kj / d.y, j = kj % d.y;
            const float kk = static_cast<float>(k);
            const float jj = static_cast<float>(j);
            for (index_t i = 0; i < d.x; ++i) {
                const float ii = static_cast<float>(i);
                float sum = 0.0f;
                for (index_t b = 0; b < nb; ++b) {
                    const Mat34& m = mats[static_cast<std::size_t>(s0 + b)];
                    const float z = static_cast<float>(m[2].x) * ii +
                                    static_cast<float>(m[2].y) * jj +
                                    static_cast<float>(m[2].z) * kk + static_cast<float>(m[2].w);
                    if (z <= 0.0f) continue;
                    const float x = (static_cast<float>(m[0].x) * ii +
                                     static_cast<float>(m[0].y) * jj +
                                     static_cast<float>(m[0].z) * kk +
                                     static_cast<float>(m[0].w)) /
                                    z;
                    const float y = (static_cast<float>(m[1].x) * ii +
                                     static_cast<float>(m[1].y) * jj +
                                     static_cast<float>(m[1].z) * kk +
                                     static_cast<float>(m[1].w)) /
                                    z;
                    if (x < 0.0f || x > static_cast<float>(g.nu - 1) || y < 0.0f ||
                        y > static_cast<float>(g.nv - 1))
                        continue;
                    sum += 1.0f / (z * z) * tex_bilinear(tex, x, y, b);
                }
                acc[static_cast<std::size_t>((k * d.y + j) * d.x + i)] += sum;
            }
        });
    }

    dvol.download(vol.span());
}

}  // namespace xct::backproj
