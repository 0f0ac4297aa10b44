#include "recon/distributed.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/names.hpp"
#include "faults/checkpoint.hpp"
#include "faults/fault.hpp"
#include "integrity/watchdog.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace xct::recon {
namespace {

/// One dead rank's view share, owned by the survivor the takeover was
/// assigned to.  The band path holds internal pointers (device/texture),
/// so Takeover lives behind unique_ptr and is constructed in place.
struct Takeover {
    Takeover(index_t k, const RankConfig& share, std::unique_ptr<ProjectionSource> src,
             const std::vector<SlabPlan>& plans)
        : key(k), source(std::move(src)), path(share, *source, plans)
    {
    }

    index_t key;  ///< the dead rank's rank_in_group (reduction position)
    std::unique_ptr<ProjectionSource> source;
    BandPath path;
};

}  // namespace

DistributedResult reconstruct_distributed(const DistributedConfig& cfg,
                                          const SourceFactory& make_source, const Storer& store)
{
    cfg.geometry.validate();
    require(cfg.layout.num_groups > 0 && cfg.layout.ranks_per_group > 0,
            "reconstruct_distributed: layout must be positive");
    require(cfg.layout.num_groups <= cfg.geometry.vol.z,
            "reconstruct_distributed: more groups than output slices");
    require(cfg.layout.ranks_per_group <= cfg.geometry.num_proj,
            "reconstruct_distributed: more ranks per group than views");

    const index_t nranks = cfg.layout.nranks();
    DistributedResult result{Volume{}, std::vector<RankStats>(static_cast<std::size_t>(nranks)),
                             0.0, {}};

    const double t0 = telemetry::flight::wall_now();
    minimpi::run(nranks, [&](minimpi::Communicator& world) {
        const RankId rank{world.rank()};
        const GroupId group = cfg.layout.group_of(rank);

        // Fleet aggregation (DESIGN.md §3g): every rank — dead ones
        // included, with zeros — contributes its stage busy seconds to a
        // final world gather, and rank 0 folds the fleet into the
        // log-bucketed `fleet.stage.<stage>.seconds` histograms the run
        // report reads percentiles from.  All ranks must pass through
        // here or the collective deadlocks, which is why dead ranks call
        // it on their early-return path.
        const auto fleet_gather = [&](const RankStats& st) {
            static constexpr const char* kStages[7] = {
                names::kStageLoad,   names::kStageFilter, names::kStagePrefetch,
                names::kStageBp,     names::kStageReduce, names::kStageStore,
                names::kStageWall};
            const std::vector<float> mine = {
                static_cast<float>(st.t_load),     static_cast<float>(st.t_filter),
                static_cast<float>(st.t_prefetch), static_cast<float>(st.t_bp),
                static_cast<float>(st.t_reduce),   static_cast<float>(st.t_store),
                static_cast<float>(st.wall)};
            std::vector<float> all(static_cast<std::size_t>(nranks) * mine.size());
            world.gather(mine, all, 0);
            if (rank != RankId{0}) return;
            std::uint64_t contributing = 0;
            for (index_t r = 0; r < nranks; ++r) {
                const std::size_t base = static_cast<std::size_t>(r) * mine.size();
                if (all[base + 6] <= 0.0f) continue;  // dead rank: zeros
                ++contributing;
                for (std::size_t s = 0; s < mine.size(); ++s)
                    telemetry::fleet_observe(kStages[s], static_cast<double>(all[base + s]));
            }
            telemetry::registry().counter(names::kMetricFleetRanks).add(contributing);
        };

        // Dropout: a rank scheduled to die (site "rank.dropout") finds out
        // here.  Without degraded mode this is fail-loudly — the exception
        // aborts the whole team, MPI's default error handler.
        bool i_died = faults::should_fail(names::kSiteRankDropout);

        // Stall: a rank wedged at startup (site "rank.stall", kind=stall)
        // is indistinguishable from a dead one to its peers.  The watchdog
        // supervises a health probe through the stall point; blowing the
        // deadline converts the hang into a TransientError, and the rank
        // declares itself dead before the liveness exchange so the same
        // degraded-reduce machinery absorbs it.
        if (!i_died && cfg.watchdog_timeout_s > 0.0) {
            integrity::Watchdog wd(cfg.watchdog_timeout_s);
            try {
                // The probe is a flight span: healthy ranks' completed
                // probes are the "recent past" a post-mortem dump shows
                // when a wedged peer trips the deadline at startup.
                wd.supervise(names::kWatchHealthProbe, [rank] {
                    telemetry::ScopedTrace probe(names::kCatIntegrity,
                                                 names::kWatchHealthProbe, rank.value());
                    faults::stall_point(names::kSiteRankStall);
                });
            } catch (const faults::TransientError&) {
                i_died = true;
            }
        }
        if (i_died && !cfg.degraded_reduce)
            throw faults::InjectedFault("rank.dropout", rank, 0);

        std::vector<char> alive(static_cast<std::size_t>(nranks), 1);
        minimpi::Communicator gcomm;
        if (cfg.degraded_reduce) {
            // World-wide liveness exchange: one-hot death flags, summed so
            // every rank sees the same membership before splitting.
            std::vector<float> flag(static_cast<std::size_t>(nranks), 0.0f);
            flag[static_cast<std::size_t>(rank.value())] = i_died ? 1.0f : 0.0f;
            std::vector<float> deaths(static_cast<std::size_t>(nranks), 0.0f);
            world.allreduce_sum(flag, deaths);
            for (index_t r = 0; r < nranks; ++r)
                alive[static_cast<std::size_t>(r)] = deaths[static_cast<std::size_t>(r)] == 0.0f;
            for (index_t g = 0; g < cfg.layout.num_groups; ++g) {
                index_t survivors = 0;
                for (index_t r = g * cfg.layout.ranks_per_group;
                     r < (g + 1) * cfg.layout.ranks_per_group; ++r)
                    survivors += alive[static_cast<std::size_t>(r)] ? 1 : 0;
                require(survivors > 0,
                        "reconstruct_distributed: every rank of group " + std::to_string(g) +
                            " died; degraded reduce needs at least one survivor per group");
            }
            if (rank == RankId{0}) {
                for (index_t r = 0; r < nranks; ++r)
                    if (!alive[static_cast<std::size_t>(r)]) result.dead.push_back(RankId{r});
                if (!result.dead.empty())
                    telemetry::registry().counter(names::kMetricFaultsDegradedRanks).add(
                        result.dead.size());
            }
            // Dead ranks split into a "graveyard" colour so survivors'
            // group communicators exclude them, then leave.  Survivor key
            // order preserves rank_in_group, so a surviving original root
            // stays root.
            const index_t color = i_died ? cfg.layout.num_groups : group.value();
            gcomm = world.split(color, cfg.layout.rank_in_group(rank));
            if (i_died) {
                fleet_gather(RankStats{});  // zeros, so the world gather completes
                return;
            }
        } else {
            gcomm = world.split(group.value(), cfg.layout.rank_in_group(rank));
        }

        RankConfig rc = cfg;
        rc.views = cfg.layout.views_of_rank(rank, cfg.geometry.num_proj);
        rc.slices = cfg.layout.slices_of_group(group, cfg.geometry.vol.z);
        rc.checkpoint.reset();

        // Checkpoint resume must re-enter the per-slab reduce at the same
        // slab on every rank of the group, so reconcile to the group-wide
        // minimum cursor.  Saved slabs live with the group root: if the
        // root died, the group recomputes from slab 0 (always correct —
        // replay is idempotent).
        const bool root_alive =
            alive[static_cast<std::size_t>(cfg.layout.group_root(group).value())];
        index_t first_live = 0;
        if (cfg.checkpoint_dir) {
            const auto my_dir = *cfg.checkpoint_dir / ("rank_" + std::to_string(rank.value()));
            // Validated, not raw: a damaged slab file lowers this rank's
            // cursor *before* the group reconciliation, so every rank of
            // the group re-enters the per-slab reduce at the same index.
            const index_t cursor = faults::CheckpointStore(my_dir).validated_cursor();
            const index_t group_min =
                root_alive ? -static_cast<index_t>(gcomm.allreduce_max(-static_cast<double>(cursor)))
                           : 0;
            rc.checkpoint = CheckpointConfig{my_dir, group_min};
            first_live = group_min;
        }

        // Round-robin takeover: the g-th dead rank of a group is replayed
        // by its g-th survivor (ordered by rank_in_group), so the load is
        // spread when several ranks died.
        std::vector<std::unique_ptr<Takeover>> takeovers;
        bool group_has_dead = false;
        if (cfg.degraded_reduce) {
            std::vector<RankId> group_dead, group_alive;
            for (index_t r = group.value() * cfg.layout.ranks_per_group;
                 r < (group.value() + 1) * cfg.layout.ranks_per_group; ++r)
                (alive[static_cast<std::size_t>(r)] ? group_alive : group_dead)
                    .push_back(RankId{r});
            group_has_dead = !group_dead.empty();
            if (group_has_dead) {
                require(cfg.ranks_per_node == 0,
                        "reconstruct_distributed: degraded reduce requires the flat reduce "
                        "(ranks_per_node == 0)");
                const index_t nb = (rc.slices.length() + cfg.batches - 1) / cfg.batches;
                const auto plans = plan_slabs(cfg.geometry, rc.slices, nb);
                for (std::size_t d = 0; d < group_dead.size(); ++d) {
                    if (group_alive[d % group_alive.size()] != rank) continue;
                    const RankId dead_rank = group_dead[d];
                    auto src = make_source(dead_rank);
                    require(src != nullptr,
                            "reconstruct_distributed: source factory returned null");
                    RankConfig share = rc;
                    share.views = cfg.layout.views_of_rank(dead_rank, cfg.geometry.num_proj);
                    takeovers.push_back(std::make_unique<Takeover>(
                        cfg.layout.rank_in_group(dead_rank), share, std::move(src), plans));
                    // A resumed run needs the dead share's texture as its
                    // first live slab finds it.  Rebuilding it here, before
                    // run_rank, keeps the replay outside the reduce deadline.
                    takeovers.back()->path.replay(plans, first_live);
                }
                if (!takeovers.empty())
                    telemetry::registry().counter(names::kMetricFaultsDegradedTakeovers).add(
                        takeovers.size());
            }
        }
        const bool is_root = gcomm.rank() == 0;
        std::vector<float> recv;
        index_t next_slab = first_live;  // reduce is called once per live slab, in order

        auto reduce = [&](Volume& slab, const SlabPlan& plan) {
            // Segmented reduction: only this group's communicator takes
            // part (Fig. 8).  Roots receive the sum in place.
            const index_t idx = next_slab++;
            if (is_root) recv.resize(static_cast<std::size_t>(slab.count()));
            if (!group_has_dead) {
                if (cfg.ranks_per_node > 0)
                    gcomm.reduce_sum_hierarchical(slab.span(), recv, 0, cfg.ranks_per_node);
                else
                    gcomm.reduce_sum(slab.span(), recv, 0);
            } else {
                // Degraded path: recompute each dead rank's partial with
                // its exact arithmetic, then sum all parts in original
                // rank_in_group order — bitwise-identical to the unfaulted
                // flat reduce.
                std::vector<Volume> replayed;
                replayed.reserve(takeovers.size());
                for (auto& t : takeovers) {
                    telemetry::ScopedTrace trace(names::kCatFaults, names::kSpanTakeover, idx);
                    t->path.advance(idx, plan);
                    replayed.push_back(t->path.backproject(idx, plan));
                    telemetry::registry().counter(names::kMetricFaultsDegradedSlabs).add(1);
                }
                std::vector<minimpi::ReducePart> parts;
                parts.reserve(1 + replayed.size());
                parts.push_back({cfg.layout.rank_in_group(rank), slab.span()});
                for (std::size_t i = 0; i < replayed.size(); ++i)
                    parts.push_back({takeovers[i]->key, replayed[i].span()});
                gcomm.reduce_sum_parts(parts, recv, 0);
            }
            if (is_root) std::copy(recv.begin(), recv.end(), slab.span().begin());
            return is_root;
        };

        auto source = make_source(rank);
        require(source != nullptr, "reconstruct_distributed: source factory returned null");
        result.ranks[static_cast<std::size_t>(rank.value())] =
            run_rank(rc, *source, reduce, store);
        fleet_gather(result.ranks[static_cast<std::size_t>(rank.value())]);
    });
    result.wall_seconds = telemetry::flight::wall_now() - t0;
    return result;
}

DistributedResult reconstruct_distributed(const DistributedConfig& cfg,
                                          const SourceFactory& make_source)
{
    cfg.geometry.validate();
    Volume volume(cfg.geometry.vol);
    DistributedResult result = reconstruct_distributed(cfg, make_source, volume_storer(volume));
    result.volume = std::move(volume);
    return result;
}

}  // namespace xct::recon
