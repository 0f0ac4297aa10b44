#pragma once
// One rank's end-to-end reconstruction pipeline (Fig. 9):
//
//   load -> filter -> back-projection -> reduce -> store
//
// Five std::threads connected by four bounded FIFO queues; the MPI/reduce
// and store stages are injected as callables so the same pipeline serves
// the single-node out-of-core reconstructor (identity reducer) and the
// distributed framework (segmented minimpi reduction, PFS store).
//
// The back-projection stage owns the simulated device and implements
// Algorithm 3: a circular texture of H detector rows; each batch uploads
// only its *differential* rows (Eq. 6), splitting copies that wrap.
//
// Resilience (see DESIGN.md "Resilience"): source loads pass the
// "source.load" fault gate and are retried under cfg.retry; with
// cfg.checkpoint set, completed slabs are recorded in a CheckpointStore
// (group roots also save the reduced slab) and a restarted run replays
// saved slabs through the store callable before resuming live computation
// at the first incomplete slab — the restart is bitwise-identical to an
// uninterrupted run because every per-row operation (noise realisation,
// filtering, Parker weighting) is independent of the band split.

#include <atomic>
#include <filesystem>
#include <functional>
#include <optional>

#include "core/cancel.hpp"
#include "core/decompose.hpp"
#include "core/geometry.hpp"
#include "core/preprocess.hpp"
#include "core/volume.hpp"
#include "faults/retry.hpp"
#include "filter/ramp.hpp"
#include "io/band_codec.hpp"
#include "recon/source.hpp"
#include "sim/device.hpp"

namespace xct::filter {
class ParkerWeights;
}
namespace xct::io {
class VolumeWriter;
}

namespace xct::recon {

/// Slab-granular checkpoint/restart configuration of one rank.
struct CheckpointConfig {
    std::filesystem::path dir;  ///< this rank's private checkpoint directory
    /// Resume at most this many slabs from the checkpoint (-1: all the
    /// cursor covers).  The distributed layer reconciles this to the
    /// group-wide minimum so every rank re-enters the per-slab reduce
    /// collective at the same slab index.
    index_t resume_limit = -1;
};

/// Configuration of one rank's pipeline.
struct RankConfig {
    CbctGeometry geometry;                       ///< full problem geometry
    Range views{};                               ///< this rank's view share (Np split)
    Range slices{};                              ///< this rank's group slice range
    index_t batches = 8;                         ///< Nc (the paper fixes 8, Sec. 4.4.1)
    filter::Window window = filter::Window::RamLak;
    std::size_t device_capacity = 512u << 20;    ///< per-rank device budget [bytes]
    double h2d_gbps = 12.0;                      ///< PCIe model for T_H2D
    double d2h_gbps = 12.0;                      ///< PCIe model for T_D2H
    bool threaded = true;                        ///< 5-thread pipeline vs in-order execution
    std::optional<BeerLawScalar> beer;           ///< Eq. 1 calibration when source emits counts
    /// Retry transient source-load and device-transfer faults (nullopt —
    /// the default — fails loudly on the first fault).
    std::optional<faults::RetryPolicy> retry;
    /// Slab-granular checkpoint/restart (nullopt: disabled).
    std::optional<CheckpointConfig> checkpoint;
    /// Watchdog deadline over the load and reduce stages (seconds; <= 0
    /// disables).  A supervised stage that finishes past the deadline —
    /// a stalled read, a collective stuck behind a dead peer, a
    /// kind=stall fault — throws integrity::DeadlineExceeded, which the
    /// retry layer treats like any other transient fault.
    double watchdog_timeout_s = 0.0;
    /// Differential band wire format (DESIGN.md §3j).  Raw is
    /// bitwise-identical to the seed pipeline; Q8 quantises each band
    /// per-range after filtering, cutting the host->device byte volume
    /// ~4x at the QuantizedTexture3 ablation's established precision.
    io::BandCodec band_codec = io::BandCodec::Raw;
    /// Stage band i+1 (gather + q8 decode, the host half of Algorithm 3)
    /// on a dedicated thread while slab i back-projects; the device copy
    /// stays on the bp thread.  Raw results are bitwise-independent of
    /// this switch.  Only meaningful with threaded = true (the sequential
    /// path stages and commits back-to-back).
    bool prefetch = false;
    /// Inter-stage FIFO capacity (the Fig. 9 queue depth; the perfmodel's
    /// queue_capacity).  The seed pipeline hard-coded 2.
    index_t queue_depth = 2;
};

/// Measured per-rank statistics (stage busy times follow Table 5's
/// columns and come from the rank's pipeline::StageClock; transfer stats
/// come from the simulated device).  The spans themselves are in the
/// flight rings (telemetry/flight.hpp).
struct RankStats {
    double t_load = 0.0;
    double t_filter = 0.0;
    double t_prefetch = 0.0;  ///< band staging (gather + decode) overlap stage
    double t_bp = 0.0;      ///< kernel time only (T_bp)
    double t_reduce = 0.0;  ///< reducer callable time (T_reduce)
    double t_store = 0.0;
    double wall = 0.0;      ///< pipeline makespan
    index_t slabs_restored = 0;  ///< slabs replayed from the checkpoint
    sim::LinkStats h2d{};
    sim::LinkStats d2h{};

    /// Total stage busy time (the numerator of the overlap factor).
    double busy() const { return t_load + t_filter + t_prefetch + t_bp + t_reduce + t_store; }
    /// Overlap efficiency: busy() / wall; > 1 means stages genuinely
    /// overlapped, and the upper bound is the stage count.
    double overlap_factor() const { return wall > 0.0 ? busy() / wall : 0.0; }
};

/// External control surface of one running rank pipeline (the handle the
/// serve engine holds; DESIGN.md §3k).  All members are optional: a null
/// field simply disables that control.  The token is *polled* at every
/// stage boundary of every slab (load, filter, prefetch hand-off, bp,
/// reduce, store), so a cancel unwinds the pipeline — and releases the
/// simulated device budget with it — within one stage boundary;
/// `slabs_done` counts slabs that reached their terminal stage (reduce
/// for non-roots, store for roots, restore for checkpoint replays) and is
/// safe to read from any thread while run_rank is executing.
struct RankControl {
    core::CancelToken* cancel = nullptr;
    std::atomic<index_t>* slabs_done = nullptr;
};

/// Reducer invoked once per slab, in slab order, on the back-projected
/// partial sub-volume.  Returns true when this rank ends up holding the
/// reduced result (group root) — only then is the store stage invoked.
using Reducer = std::function<bool(Volume& slab, const SlabPlan& plan)>;

/// Store callable (group roots only): persist the reduced slab.  Roots of
/// different groups call it concurrently, with disjoint slabs.
using Storer = std::function<void(const Volume& slab, const SlabPlan& plan)>;

/// Storer writing each slab through `out` at its z offset (slice 0 of the
/// file is global slice `z0`), so the host never holds the whole volume.
/// The tools and the serve engine store this way.
Storer file_storer(io::VolumeWriter& out, index_t z0 = 0);

/// Storer copying each slab into `out` (slice 0 of `out` is global slice
/// `z0`): the in-memory sink behind the volume-returning helpers.
Storer volume_storer(Volume& out, index_t z0 = 0);

/// Run one rank's reconstruction.  Throws sim::DeviceOutOfMemory when the
/// configured texture does not fit the device budget, std::invalid_argument
/// on inconsistent configuration, core::Cancelled when `ctl` carries a
/// token whose cancellation was requested (checked at stage boundaries).
RankStats run_rank(const RankConfig& cfg, ProjectionSource& source, const Reducer& reduce,
                   const Storer& store, const RankControl& ctl = {});

/// Prepare one loaded band for upload: Eq. 1 when the source emits raw
/// counts (`beer` must then be set), Parker weighting for short scans
/// (`parker` non-null) and the Eq. 2 filter, all in one
/// FilterEngine::apply (the first two as its prologue), then the wire
/// encoding against the extent that apply folded.  `band` is weighted and
/// filtered in place; returns its q8 form under BandCodec::Q8 and nullopt
/// under Raw.  The live filter stage, the checkpoint replay and the
/// degraded-takeover replay all go through here, so a takeover rebuilds
/// the dead rank's texture bitwise.
std::optional<io::EncodedBand> prepare_band(ProjectionStack& band, bool raw_counts,
                                            const std::optional<BeerLawScalar>& beer,
                                            const filter::ParkerWeights* parker,
                                            const filter::FilterEngine& engine,
                                            io::BandCodec codec);

/// Identity reducer for single-rank use.
inline bool identity_reducer(Volume&, const SlabPlan&)
{
    return true;
}

}  // namespace xct::recon
