#include "recon/fdk.hpp"

#include <cmath>

namespace xct::recon {

RankStats reconstruct_fdk_slices(RankConfig cfg, ProjectionSource& source, Range slices,
                                 const Storer& store)
{
    cfg.geometry.validate();
    require(!slices.empty() && slices.lo >= 0 && slices.hi <= cfg.geometry.vol.z,
            "reconstruct_fdk_slices: slices out of range");
    cfg.views = Range{0, cfg.geometry.num_proj};
    cfg.slices = slices;
    return run_rank(cfg, source, identity_reducer, store);
}

FdkResult reconstruct_fdk(RankConfig cfg, ProjectionSource& source)
{
    cfg.geometry.validate();
    FdkResult result{Volume(cfg.geometry.vol), RankStats{}};
    result.stats = reconstruct_fdk_slices(cfg, source, Range{0, cfg.geometry.vol.z},
                                          volume_storer(result.volume));
    return result;
}

FdkResult reconstruct_fdk(const CbctGeometry& g, const std::vector<phantom::Ellipsoid>& phantom,
                          filter::Window window)
{
    RankConfig cfg;
    cfg.geometry = g;
    cfg.window = window;
    PhantomSource source(phantom, g);
    return reconstruct_fdk(cfg, source);
}

double rmse(const Volume& a, const Volume& b, index_t margin)
{
    require(a.size() == b.size(), "rmse: volume size mismatch");
    const Dim3 d = a.size();
    require(2 * margin < d.x && 2 * margin < d.y && 2 * margin < d.z,
            "rmse: margin leaves no interior");
    double acc = 0.0;
    index_t n = 0;
    for (index_t k = margin; k < d.z - margin; ++k)
        for (index_t j = margin; j < d.y - margin; ++j)
            for (index_t i = margin; i < d.x - margin; ++i) {
                const double e = static_cast<double>(a.at(i, j, k)) - static_cast<double>(b.at(i, j, k));
                acc += e * e;
                ++n;
            }
    return std::sqrt(acc / static_cast<double>(n));
}

double rmse_flat(const Volume& a, const Volume& reference, index_t margin, float flat_tol)
{
    require(a.size() == reference.size(), "rmse_flat: volume size mismatch");
    require(margin >= 1, "rmse_flat: margin must be >= 1 (neighbourhood access)");
    const Dim3 d = a.size();
    require(2 * margin < d.x && 2 * margin < d.y && 2 * margin < d.z,
            "rmse_flat: margin leaves no interior");
    double acc = 0.0;
    index_t n = 0;
    for (index_t k = margin; k < d.z - margin; ++k)
        for (index_t j = margin; j < d.y - margin; ++j)
            for (index_t i = margin; i < d.x - margin; ++i) {
                const float c = reference.at(i, j, k);
                const bool flat = std::abs(reference.at(i - 1, j, k) - c) < flat_tol &&
                                  std::abs(reference.at(i + 1, j, k) - c) < flat_tol &&
                                  std::abs(reference.at(i, j - 1, k) - c) < flat_tol &&
                                  std::abs(reference.at(i, j + 1, k) - c) < flat_tol &&
                                  std::abs(reference.at(i, j, k - 1) - c) < flat_tol &&
                                  std::abs(reference.at(i, j, k + 1) - c) < flat_tol;
                if (!flat) continue;
                const double e = static_cast<double>(a.at(i, j, k)) - static_cast<double>(c);
                acc += e * e;
                ++n;
            }
    require(n > 0, "rmse_flat: no flat voxels in the interior");
    return std::sqrt(acc / static_cast<double>(n));
}

}  // namespace xct::recon
