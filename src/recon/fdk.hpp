#pragma once
// Single-node FDK reconstruction — the out-of-core reconstructor of
// Table 5 (one rank, one simulated device, full view range), built on the
// same rank pipeline as the distributed framework.
//
// FDK normalisation (DESIGN.md §6): the filtered projections carry
// pi/Np * Dsd/Dso (folded into the ramp kernel), back-projection applies
// the per-voxel 1/z^2 distance weight, so the output approximates the
// attenuation field sampled on the reconstruction grid.

#include "recon/rank_pipeline.hpp"

namespace xct::recon {

/// Reconstruct output slices `slices` (half-open, global z; all of them
/// for FDK, a sub-range for a region of interest) on one simulated device,
/// handing each finished slab to `store` (its plan carries global z).
/// Loads and filters only the detector bands those slices need — the
/// decomposition makes ROI work proportional to the ROI.
/// `cfg.views`/`cfg.slices` are ignored.  Out-of-core behaviour falls out of cfg.batches and
/// cfg.device_capacity: the volume never has to fit the device, and with
/// file_storer it never has to fit the host either.
RankStats reconstruct_fdk_slices(RankConfig cfg, ProjectionSource& source, Range slices,
                                 const Storer& store);

/// Single-node FDK result of the in-memory helpers below.
struct FdkResult {
    Volume volume;
    RankStats stats;
};

/// The full volume of `cfg.geometry`, assembled in memory (volume_storer).
FdkResult reconstruct_fdk(RankConfig cfg, ProjectionSource& source);

/// Convenience: reconstruct a phantom through `g` (in-memory, threaded).
FdkResult reconstruct_fdk(const CbctGeometry& g, const std::vector<phantom::Ellipsoid>& phantom,
                          filter::Window window = filter::Window::RamLak);

/// Root-mean-square error between two equal-size volumes, optionally
/// restricted to the centred box that excludes `margin` voxels on every
/// face (FDK edge slices are intrinsically approximate).
double rmse(const Volume& a, const Volume& b, index_t margin = 0);

/// RMSE restricted to voxels whose 6-neighbourhood in `reference` is flat
/// (all neighbour differences below `flat_tol`).  Discontinuity voxels are
/// excluded because any band-limited reconstruction rings there; this is
/// the tight interior-accuracy metric used by the quality tests.
double rmse_flat(const Volume& a, const Volume& reference, index_t margin = 1,
                 float flat_tol = 1e-3f);

}  // namespace xct::recon
