#pragma once
// Projection sources feeding the pipeline's load stage.  A source returns
// the sub-projection a rank needs: a view range (the Np split) times a
// detector-row band (the Nv split) — the paper's defining access pattern
// (Fig. 3a): nobody ever loads a full frame.

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/geometry.hpp"
#include "core/ids.hpp"
#include "core/preprocess.hpp"
#include "core/volume.hpp"
#include "phantom/shepp_logan.hpp"

namespace xct::recon {

class ProjectionSource {
public:
    virtual ~ProjectionSource() = default;

    /// Load the row band `band` of views `views` (global coordinates).
    /// Values are photon *counts* when raw_counts() is true (the pipeline
    /// then applies Eq. 1), line integrals otherwise.
    virtual ProjectionStack load(Range views, Range band) = 0;

    virtual bool raw_counts() const { return false; }
};

/// Analytic phantom source: generates exact line integrals on demand; with
/// a calibration attached it emits synthetic photon counts instead
/// (inverse Beer law), exercising the full preprocessing path.
class PhantomSource final : public ProjectionSource {
public:
    PhantomSource(std::vector<phantom::Ellipsoid> ellipsoids, const CbctGeometry& g,
                  std::optional<BeerLawScalar> emit_counts = std::nullopt);

    ProjectionStack load(Range views, Range band) override;
    bool raw_counts() const override { return emit_counts_.has_value(); }

private:
    std::vector<phantom::Ellipsoid> ellipsoids_;
    CbctGeometry geometry_;
    std::optional<BeerLawScalar> emit_counts_;
};

/// Serves sub-projections out of a resident full stack (tests, benches).
class MemorySource final : public ProjectionSource {
public:
    /// `full` must cover all views and rows that will be requested and
    /// outlive the source.
    explicit MemorySource(const ProjectionStack& full, bool counts = false);

    ProjectionStack load(Range views, Range band) override;
    bool raw_counts() const override { return counts_; }

private:
    const ProjectionStack* full_;
    bool counts_;
};

/// Per-rank source factory (each pipeline rank owns its source instance,
/// as each MPI rank owns its NVMe file handles in the paper).
using SourceFactory = std::function<std::unique_ptr<ProjectionSource>(RankId rank)>;

}  // namespace xct::recon

// PfsSource lives behind the io layer; declared here so reconstruction
// drivers can be wired to real on-disk data without extra includes.
#include "io/pfs.hpp"

namespace xct::recon {

/// Serves sub-projections from a stack file on a bandwidth-accounted Pfs
/// using *partial row reads* — only the requested band's bytes move, the
/// paper's O(Nu) input lower bound realised through real file I/O.
/// `counts` marks raw-photon-count files (Eq. 1 applies downstream).
class PfsSource final : public ProjectionSource {
public:
    PfsSource(io::Pfs& pfs, std::string rel, bool counts = false);

    ProjectionStack load(Range views, Range band) override;
    bool raw_counts() const override { return counts_; }

private:
    io::Pfs* pfs_;
    std::string rel_;
    bool counts_;
};

/// Factory producing per-rank PfsSources that all read one Pfs-resident
/// stack concurrently (Pfs is internally thread-safe), mirroring ranks
/// sharing a node's NVMe.
SourceFactory make_shared_pfs_factory(io::Pfs& pfs, std::string rel, bool counts = false);

}  // namespace xct::recon
