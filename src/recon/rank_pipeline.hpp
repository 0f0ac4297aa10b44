#pragma once
// One rank's end-to-end reconstruction pipeline (Fig. 9):
//
//   load -> filter -> prefetch -> back-projection -> reduce -> store
//
// Five std::threads (load, filter, prefetch, bp, store) plus the calling
// thread (reduce), joined by bounded FIFO queues; a ring of staging
// buffers returns from bp to prefetch.  The reduce and store stages are
// injected as callables so the same pipeline serves the single-node
// out-of-core reconstructor (identity reducer) and the distributed
// framework (segmented minimpi reduction, PFS store).
//
// Every band goes through one BandPath: the load, filter and prefetch
// stages, the device copy of Algorithm 3 (a circular texture of H
// detector rows; each batch uploads only its *differential* rows, Eq. 6)
// and the back-projection.  The stage threads, the in-order twin
// (threaded = false), the checkpoint-restart replay and the degraded
// takeover (recon::distributed) all call the same BandPath functions.
//
// Resilience (see DESIGN.md "Resilience"): source loads pass the
// "source.load" fault gate and are retried under cfg.retry; with
// cfg.checkpoint set, completed slabs are recorded in a CheckpointStore
// (group roots also save the reduced slab) and a restarted run replays
// saved slabs through the store callable, rebuilds the texture from the
// completed slabs' original delta bands, and resumes live computation at
// the first incomplete slab, bitwise-identical to an uninterrupted run.

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
#include "filter/parker.hpp"
#include "filter/ramp.hpp"
#include "integrity/watchdog.hpp"
#include "io/band_codec.hpp"
#include "recon/slab_backprojector.hpp"
#include "recon/source.hpp"
#include "sim/device.hpp"

namespace xct::io {
class VolumeWriter;
}
namespace xct::pipeline {
class StageClock;
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
    bool threaded = true;                        ///< stage threads vs the same stages in order
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
/// stage boundary of every slab (load, filter, prefetch, bp, reduce,
/// store), so a cancel unwinds the pipeline — and releases the
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

/// One slab's differential band on its way through a BandPath.
struct Band {
    index_t idx = 0;
    SlabPlan plan;
    std::optional<ProjectionStack> delta;  ///< loaded rows; absent when Eq. 6's delta is empty
    /// q8 wire form of the filtered delta (BandCodec::Q8).  `delta` is
    /// released once encoded: later stages see only the wire form, which
    /// is what makes the transport compression honest.
    std::optional<io::EncodedBand> encoded;
    std::optional<SlabBackprojector::StagedBand> staged;  ///< upload-ordered planes

    /// Nothing to stage: the delta was empty, or the band is staged.
    bool empty() const { return !delta && !encoded; }
};

/// The band path of one view share (cfg.views): the load, filter and
/// prefetch stages, the device copy and the back-projection, over one
/// source, filter engine, Parker table, watchdog and SlabBackprojector.
/// The stage threads, the in-order twin, the checkpoint-restart replay
/// and the degraded takeover all run these functions, so a band takes
/// the same steps whichever of them moves it.  Stage spans go to `clock`
/// and the stage boundaries poll `cancel` (null: neither).
class BandPath {
public:
    /// Throws sim::DeviceOutOfMemory when the texture does not fit the
    /// device budget, std::invalid_argument when the source emits raw
    /// counts and cfg.beer is unset.
    BandPath(const RankConfig& cfg, ProjectionSource& source, const std::vector<SlabPlan>& plans,
             pipeline::StageClock* clock = nullptr, core::CancelToken* cancel = nullptr);
    BandPath(const BandPath&) = delete;  // stage threads and the prologue hold its address
    BandPath& operator=(const BandPath&) = delete;

    /// Load stage: the plan's delta rows, once per attempt of the retry:
    /// watchdog -> source.load fault and stall points -> source -> digest
    /// -> transit corruption point -> verify.  No read for an empty delta.
    Band load(index_t idx, const SlabPlan& plan);
    /// Filter stage: Eq. 1 for raw counts, Parker weights for short scans
    /// and the Eq. 2 filter in one FilterEngine::apply, then the q8
    /// encoding against the extent apply folded (BandCodec::Q8).
    void prepare(Band& band) const;
    /// Prefetch stage: gather (raw) or decode (q8) a non-empty band into
    /// upload order, in the recycled `storage`, and release its loaded
    /// form.
    void stage(Band& band, SlabBackprojector::Planes storage) const;
    /// Device copy of a staged band; returns its storage for reuse.
    SlabBackprojector::Planes commit(Band& band);
    /// Back-project slab `idx` from the resident texture rows.
    Volume backproject(index_t idx, const SlabPlan& plan);

    /// load -> prepare -> stage -> commit slab `idx`'s band in order,
    /// staging into one recycled buffer.
    void advance(index_t idx, const SlabPlan& plan);
    /// Rebuild the texture a run resuming at slab `resume` needs: advance
    /// through slabs [0, resume), one original delta band at a time.  The
    /// fp32 filter pairs rows within a band, so only the original banding
    /// reproduces the texture bitwise.  A no-op when no slab is left.
    void replay(const std::vector<SlabPlan>& plans, index_t resume);

    /// Supervises the loads; run_rank's reduce stage shares it.
    integrity::Watchdog& watchdog() { return watchdog_; }
    const sim::Device& device() const { return bp_.device(); }

private:
    void poll(const char* where) const;

    RankConfig cfg_;
    ProjectionSource& source_;
    pipeline::StageClock* clock_;
    core::CancelToken* cancel_;
    SlabBackprojector bp_;
    filter::FilterEngine engine_;
    std::optional<filter::ParkerWeights> parker_;  ///< short scans only
    filter::Prologue prologue_;                    ///< Eq. 1 and Parker, as the source needs
    integrity::Watchdog watchdog_;
    SlabBackprojector::Planes spare_;  ///< advance()'s staging buffer
};

/// Identity reducer for single-rank use.
inline bool identity_reducer(Volume&, const SlabPlan&)
{
    return true;
}

}  // namespace xct::recon
