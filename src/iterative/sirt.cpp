#include "iterative/sirt.hpp"

#include <cmath>

#include "backproj/reference.hpp"
#include "core/parallel.hpp"
#include "projector/forward.hpp"

namespace xct::iterative {

void backproject_unweighted(const ProjectionStack& p, const CbctGeometry& g, Volume& vol)
{
    require(vol.size() == g.vol, "backproject_unweighted: volume size mismatch");
    require(p.views() == g.num_proj && p.rows() == g.nv,
            "backproject_unweighted: full stack required");
    const auto mats = projection_matrices(g);
    const Dim3 d = vol.size();
    for (index_t s = 0; s < p.views(); ++s) {
        const Mat34& m = mats[static_cast<std::size_t>(s)];
        parallel::parallel_for(d.z, 1, [&](index_t k, std::size_t) {
            for (index_t j = 0; j < d.y; ++j)
                for (index_t i = 0; i < d.x; ++i) {
                    const Projected pr = project(m, static_cast<double>(i), static_cast<double>(j),
                                                 static_cast<double>(k));
                    if (pr.z <= 0.0) continue;
                    if (pr.x < 0.0 || pr.x > static_cast<double>(g.nu - 1) || pr.y < 0.0 ||
                        pr.y > static_cast<double>(g.nv - 1))
                        continue;
                    vol.at(i, j, k) += backproj::sub_pixel(p, s, static_cast<float>(pr.x),
                                                           static_cast<float>(pr.y));
                }
        });
    }
}

SirtResult reconstruct_sirt(const CbctGeometry& g, const ProjectionStack& b, const SirtConfig& cfg)
{
    g.validate();
    require(cfg.iterations > 0, "reconstruct_sirt: iterations must be positive");
    require(b.views() == g.num_proj && b.rows() == g.nv && b.cols() == g.nu,
            "reconstruct_sirt: stack must match the geometry");
    const double step = cfg.march_step_mm > 0.0 ? cfg.march_step_mm
                                                : 0.5 * std::min({g.dx, g.dy, g.dz});

    // Row sums R^-1 = A * 1 (ray lengths through the volume).
    Volume ones(g.vol, 1.0f);
    ProjectionStack row_sums =
        projector::forward_project(ones, g, Range{0, g.num_proj}, Range{0, g.nv}, step);

    // Column sums C^-1 = A^T * 1 (voxel visibility weights).
    ProjectionStack ones_proj(g.num_proj, g.nv, g.nu, 1.0f);
    Volume col_sums(g.vol);
    backproject_unweighted(ones_proj, g, col_sums);

    SirtResult result{Volume(g.vol), {}};
    ProjectionStack residual(g.num_proj, g.nv, g.nu);
    Volume update(g.vol);

    for (index_t it = 0; it < cfg.iterations; ++it) {
        // residual = b - A x
        residual = projector::forward_project(result.volume, g, Range{0, g.num_proj},
                                              Range{0, g.nv}, step);
        double norm2 = 0.0;
        for (index_t i = 0; i < residual.count(); ++i) {
            const std::size_t ii = static_cast<std::size_t>(i);
            residual.span()[ii] = b.span()[ii] - residual.span()[ii];
            norm2 += static_cast<double>(residual.span()[ii]) * residual.span()[ii];
        }
        // residual scaled by R (skip rays that miss the volume).
        for (index_t i = 0; i < residual.count(); ++i) {
            const std::size_t ii = static_cast<std::size_t>(i);
            const float r = row_sums.span()[ii];
            residual.span()[ii] = r > 1e-6f ? residual.span()[ii] / r : 0.0f;
        }
        // update = A^T (R residual), then x += lambda * C update.
        update.fill(0.0f);
        backproject_unweighted(residual, g, update);
        for (index_t i = 0; i < update.count(); ++i) {
            const std::size_t ii = static_cast<std::size_t>(i);
            const float c = col_sums.span()[ii];
            if (c > 1e-6f)
                result.volume.span()[ii] += static_cast<float>(cfg.relaxation) *
                                            update.span()[ii] / c;
        }
        result.residuals.push_back(std::sqrt(norm2));
        if (cfg.on_iteration) cfg.on_iteration(it, result.residuals.back());
    }
    return result;
}

}  // namespace xct::iterative
