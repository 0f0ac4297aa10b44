#pragma once
// The back-projection engine of one view share: the device half of a
// recon::BandPath (rank_pipeline.hpp).  A rank's own share and, in the
// degraded-mode reduce, each dead peer's share taken over by a survivor
// get one each, so a takeover's partial is bitwise what the dead rank
// would have produced.
//
// Owns the simulated device, the circular texture of H detector rows and
// the Algorithm-3 upload bookkeeping (differential bands, wrap-splitting):
// stage_band gathers a band into upload order on the host, commit_band
// copies it to the device.

#include <optional>
#include <vector>

#include "backproj/kernel.hpp"
#include "core/decompose.hpp"
#include "core/geometry.hpp"
#include "core/scratch.hpp"
#include "core/volume.hpp"
#include "faults/retry.hpp"
#include "io/band_codec.hpp"
#include "recon/source.hpp"
#include "sim/device.hpp"

namespace xct::recon {

class SlabBackprojector {
public:
    struct Config {
        CbctGeometry geometry;                     ///< full problem geometry
        Range views{};                             ///< this engine's view share
        std::size_t device_capacity = 512u << 20;  ///< device budget [bytes]
        double h2d_gbps = 12.0;
        double d2h_gbps = 12.0;
        std::optional<faults::RetryPolicy> retry;  ///< transfer-fault retry
    };

    /// `h` is the texture depth (max rows length over the slab plans),
    /// `origin` the first plan's rows.lo (the circular addressing offset),
    /// `max_slab` the largest slab length (sizes the device sub-volume).
    SlabBackprojector(const Config& cfg, index_t h, index_t origin, index_t max_slab);

    /// Convenience: derive h/origin/max_slab from a full slab schedule.
    SlabBackprojector(const Config& cfg, const std::vector<SlabPlan>& plans);

    /// Staging storage, never zero-filled (scratch::Pages).
    using Planes = std::vector<float, scratch::Pages<float>>;

    /// A band gathered into upload-ready plane order: the host-side half
    /// of Algorithm 3, split from the device copy so the prefetch stage
    /// can run it for band i+1 while band i's slab back-projects.
    /// `planes` holds the band's rows in order, one height*width plane
    /// each; `segments` split them where the circular depth wraps.  The
    /// buffer is plain storage the pipeline recycles through its staging
    /// ring.
    struct StagedBand {
        struct Segment {
            index_t depth = 0;    ///< circular texture depth of the first plane
            index_t nplanes = 0;  ///< consecutive planes in this run
        };
        std::vector<Segment> segments;
        Planes planes;
        /// Bytes this band moved over the wire before staging (q8 payload
        /// + header); 0 means raw fp32 — commit bills texel bytes.
        std::size_t wire_bytes = 0;
    };

    /// Gather `band` into upload order (Algorithm 3 lines 10-15: circular
    /// depth addressing, wrap-split runs).  Pure host-side work — no
    /// device traffic, no fault gates.  `storage` is recycled as the
    /// staging buffer (growing it counts as a scratch::heap_events()
    /// event).  Throws std::invalid_argument, before any write, unless the
    /// band's views and columns are the texture's and its rows fit the
    /// depth.
    StagedBand stage_band(const ProjectionStack& band, Planes storage = {}) const;

    /// Decode a q8 band straight into upload order: io::decode_band_into
    /// (fault gate, transit copy, digest verify, one dequantise pass),
    /// retried under Config::retry at "band.decode".  The planes are
    /// bitwise stage_band(io::decode_band(e)); wire_bytes is set so commit
    /// bills the compressed transport.  Same fit checks.
    StagedBand stage_band(const io::EncodedBand& e, Planes storage = {}) const;

    /// Device half: copy the staged segments into the circular texture
    /// (the simulated cudaMemcpy3D calls, fault-gated + digest-verified
    /// at "sim.h2d").  Throws std::invalid_argument unless the segments
    /// cover exactly the staged planes.
    void commit_band(const StagedBand& staged);

    /// Back-project one slab from the resident texture rows and model the
    /// sub-volume device->host move (Table 5's T_D2H).
    Volume backproject(const SlabPlan& plan);

    sim::Device& device() { return device_; }
    const sim::Device& device() const { return device_; }

private:
    /// Fit-check a band, size `storage` for it, split its rows into runs.
    StagedBand staging_for(index_t views, index_t cols, Range rows, Planes storage) const;

    Config cfg_;
    index_t origin_;
    sim::Device device_;
    sim::Texture3 tex_;
    sim::DeviceBuffer slab_dev_;  ///< models the device-resident sub-volume
    /// Float-converted matrices of this engine's view share, built once at
    /// construction and reused by every backproject() call (previously the
    /// kernel re-converted the full matrix set per slab x batch).
    backproj::MatrixPack pack_;
};

}  // namespace xct::recon
