#pragma once
// The distributed FBP framework (Sec. 4.4): Ng groups of Nr ranks, the Np
// dimension split within each group, one segmented reduction per slab, and
// the end-to-end per-rank pipeline of Fig. 9 on every rank.
//
// Ranks run as minimpi threads; each owns a simulated device (one GPU per
// rank, Eq. 11) and its own projection source.  Group g reconstructs the
// slice range slices_of_group(g); within the group every rank
// back-projects its view share into the same slabs, which are then summed
// to the group root with a *segmented* reduce — per-group communicators
// from MPI_Comm_split, exactly the communication structure that replaces
// the two global collectives of prior work with one O(log Nr) reduction.
//
// Resilience (see DESIGN.md "Resilience"):
//
//   * degraded_reduce — a rank that dies at startup (fault site
//     "rank.dropout") is detected by a world-wide liveness exchange; its
//     whole view share is taken over by one survivor of its group, which
//     replays it through a second SlabBackprojector and contributes the
//     partial under the dead rank's reduction key via reduce_sum_parts.
//     Because the takeover reproduces the dead rank's exact arithmetic
//     and the keyed reduce preserves the original summation order, the
//     degraded result is bitwise-identical to the unfaulted (flat-reduce)
//     run.  Without degraded_reduce a dropout aborts the whole team.
//   * retry — forwarded to every rank's pipeline (source loads, device
//     transfers).
//   * checkpoint_dir — per-rank slab checkpoints under rank_<r>/; a rerun
//     resumes at the group-reconciled cursor (minimum over survivors; 0
//     when the group root died, since saved slabs live with the root).

#include <filesystem>
#include <optional>

#include "io/pfs.hpp"
#include "minimpi/comm.hpp"
#include "recon/rank_pipeline.hpp"

namespace xct::recon {

/// The distributed run's configuration: the per-rank pipeline settings
/// every rank shares (RankConfig; its views, slices and checkpoint are set
/// per rank from the layout and ignored here) plus the decomposition.
struct DistributedConfig : RankConfig {
    GroupLayout layout;  ///< Ng groups x Nr ranks
    /// Hierarchical reduction: ranks per pseudo-node (0 = flat reduce).
    index_t ranks_per_node = 0;
    /// Survive rank dropouts by re-assigning dead ranks' view shares to
    /// group survivors (accuracy-identical; see header comment).  Requires
    /// the flat reduce (ranks_per_node == 0) when a rank actually dies.
    bool degraded_reduce = false;
    /// Slab-granular checkpoint/restart root (per-rank subdirectories).
    std::optional<std::filesystem::path> checkpoint_dir;
    // RankConfig::watchdog_timeout_s additionally arms a pre-flight health
    // probe: a rank stalled past the deadline at startup (fault site
    // "rank.stall") is declared dead and handled exactly like a dropout,
    // so degraded_reduce takes over its view share.  RankConfig::band_codec
    // also governs the degraded-mode takeover replay, which must reproduce
    // the dead rank's arithmetic — including its quantisation — bitwise.
};

struct DistributedResult {
    Volume volume;                 ///< assembled volume (volume-returning form only)
    std::vector<RankStats> ranks;  ///< per-rank pipeline statistics
    double wall_seconds = 0.0;     ///< end-to-end wall time (max over ranks)
    std::vector<RankId> dead;      ///< world ranks lost to dropout (degraded mode)
};

/// Run the distributed reconstruction.  `make_source` builds each rank's
/// projection source; every group root hands its reduced slabs to `store`
/// (roots of different groups concurrently, with disjoint slabs).
DistributedResult reconstruct_distributed(const DistributedConfig& cfg,
                                          const SourceFactory& make_source, const Storer& store);

/// reconstruct_distributed into memory (result.volume).  When `pfs` is
/// non-null every group root additionally stores its reduced slabs there
/// (bandwidth-accounted), one file per slab.
DistributedResult reconstruct_distributed(const DistributedConfig& cfg,
                                          const SourceFactory& make_source, io::Pfs* pfs = nullptr);

}  // namespace xct::recon
