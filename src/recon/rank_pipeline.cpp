#include "recon/rank_pipeline.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "core/mutex.hpp"
#include "core/names.hpp"
#include "faults/checkpoint.hpp"
#include "faults/fault.hpp"
#include "filter/parker.hpp"
#include "integrity/integrity.hpp"
#include "integrity/watchdog.hpp"
#include "io/raw_io.hpp"
#include "pipeline/queue.hpp"
#include "pipeline/timeline.hpp"
#include "recon/slab_backprojector.hpp"
#include "telemetry/trace.hpp"

namespace xct::recon {

using pipeline::ScopedSpan;
using pipeline::Stage;

namespace {

struct LoadItem {
    index_t idx = 0;
    SlabPlan plan;
    std::optional<ProjectionStack> delta;  ///< absent when fully cached (Eq. 6 empty)
    /// q8 wire form of the filtered delta (band_codec == Q8; `delta` is
    /// released once encoded — downstream stages see only the wire form,
    /// which is what makes the transport compression honest).
    std::optional<io::EncodedBand> encoded;
};

struct VolItem {
    index_t idx = 0;
    SlabPlan plan;
    Volume slab;
};

/// Hand-off from the prefetch stage to bp: the band already gathered
/// (and, under q8, decoded) into upload order.
struct BpItem {
    index_t idx = 0;
    SlabPlan plan;
    std::optional<SlabBackprojector::StagedBand> staged;
};

void filter_item(const RankConfig& cfg, const filter::FilterEngine& engine,
                 const filter::ParkerWeights* parker, bool counts, LoadItem& item)
{
    if (!item.delta) return;
    item.encoded = prepare_band(*item.delta, counts, cfg.beer, parker, engine, cfg.band_codec);
    if (item.encoded) item.delta.reset();
}

}  // namespace

std::optional<io::EncodedBand> prepare_band(ProjectionStack& band, bool raw_counts,
                                            const std::optional<BeerLawScalar>& beer,
                                            const filter::ParkerWeights* parker,
                                            const filter::FilterEngine& engine,
                                            io::BandCodec codec)
{
    require(!raw_counts || beer.has_value(),
            "prepare_band: source emits raw counts but no Beer-law calibration configured");
    const filter::Prologue pre{raw_counts ? &*beer : nullptr, parker};
    if (codec != io::BandCodec::Q8) {
        engine.apply(band, pre);
        return std::nullopt;
    }
    Extent extent;
    engine.apply(band, pre, &extent);
    return io::encode_band(band, extent);
}

Storer file_storer(io::VolumeWriter& out, index_t z0)
{
    return [&out, z0](const Volume& slab, const SlabPlan& plan) {
        out.write(plan.slab.lo - z0, slab);
    };
}

Storer volume_storer(Volume& out, index_t z0)
{
    return [&out, z0](const Volume& slab, const SlabPlan& plan) {
        for (index_t k = 0; k < plan.slab.length(); ++k) {
            const auto src = slab.slice(k);
            std::copy(src.begin(), src.end(), out.slice(plan.slab.lo - z0 + k).begin());
        }
    };
}

RankStats run_rank(const RankConfig& cfg, ProjectionSource& source, const Reducer& reduce,
                   const Storer& store, const RankControl& ctl)
{
    cfg.geometry.validate();
    // Cooperative cancellation: one poll point per stage per slab.  The
    // throw rides the existing FirstError teardown (queues close, stage
    // threads join), so a cancel unwinds — releasing the device budget
    // held by the SlabBackprojector below — within one stage boundary.
    auto cancel_point = [&](const char* where) {
        if (ctl.cancel != nullptr) ctl.cancel->check(where);
    };
    auto slab_done = [&] {
        if (ctl.slabs_done != nullptr)
            ctl.slabs_done->fetch_add(1, std::memory_order_release);
    };
    cancel_point("setup");
    require(!cfg.views.empty() && cfg.views.lo >= 0 && cfg.views.hi <= cfg.geometry.num_proj,
            "run_rank: views out of range");
    require(!cfg.slices.empty() && cfg.slices.lo >= 0 && cfg.slices.hi <= cfg.geometry.vol.z,
            "run_rank: slices out of range");
    require(cfg.batches > 0, "run_rank: batches must be positive");
    require(cfg.queue_depth > 0, "run_rank: queue depth must be positive");

    // Eq. 12: Nb = ceil(Ns / Nc).
    const index_t nb = (cfg.slices.length() + cfg.batches - 1) / cfg.batches;
    const auto plans = plan_slabs(cfg.geometry, cfg.slices, nb);

    pipeline::StageClock clock;
    SlabBackprojector::Config bpc{cfg.geometry, cfg.views, cfg.device_capacity,
                                  cfg.h2d_gbps,  cfg.d2h_gbps, cfg.retry};
    SlabBackprojector bp(bpc, plans);
    const filter::FilterEngine engine(cfg.geometry, cfg.window);
    // Short scans need Parker redundancy weighting of this rank's views.
    std::optional<filter::ParkerWeights> parker;
    if (cfg.geometry.short_scan()) parker.emplace(cfg.geometry, cfg.views);
    const bool counts = source.raw_counts();

    RankStats stats;

    // Deadline supervision (--watchdog-timeout): the load and reduce
    // stages are the ones that block on external progress (storage, the
    // other ranks of the group) and therefore the ones a stall wedges.
    integrity::Watchdog wd(cfg.watchdog_timeout_s);

    // Slab-granular restart: replay checkpointed slabs (group roots saved
    // them; non-roots have none and only skip), then resume computation at
    // the first incomplete slab.  The resume point must be identical across
    // a reduction group — cfg.checkpoint->resume_limit carries the
    // group-reconciled minimum (already based on validated cursors, so a
    // damaged slab below the raw cursor is recomputed, not trusted).
    std::optional<faults::CheckpointStore> ckpt;
    index_t resume = 0;
    if (cfg.checkpoint) {
        ckpt.emplace(cfg.checkpoint->dir);
        resume = std::min(ckpt->validated_cursor(), static_cast<index_t>(plans.size()));
        if (cfg.checkpoint->resume_limit >= 0)
            resume = std::min(resume, cfg.checkpoint->resume_limit);
        for (index_t i = 0; i < resume; ++i) {
            if (!ckpt->has_slab(SlabId{i})) continue;
            ScopedSpan span(clock, Stage::Restore, i);
            // load_slab runs the checkpoint.load corruption point and
            // digest verify; a transit flip is transient, so re-read.
            auto attempt = [&] { return ckpt->load_slab(SlabId{i}); };
            const Volume slab =
                cfg.retry ? faults::with_retry(names::kSiteCheckpointLoad, *cfg.retry, attempt)
                          : attempt();
            store(slab, plans[static_cast<std::size_t>(i)]);
            ++stats.slabs_restored;
            slab_done();
        }
    }

    auto load_one = [&](index_t idx) {
        cancel_point("load");
        ScopedSpan span(clock, Stage::Load, idx);
        LoadItem item{idx, plans[static_cast<std::size_t>(idx)], std::nullopt, std::nullopt};
        const Range band = item.plan.delta;
        if (!band.empty()) {
            auto attempt = [&] {
                return wd.supervise(names::kWatchSourceLoad, [&] {
                    faults::check(names::kSiteSourceLoad);
                    faults::stall_point(names::kSiteSourceLoad);
                    ProjectionStack stack = source.load(cfg.views, band);
                    // Producer-boundary digest, then the transit corruption
                    // point, then verify — a flip between source and
                    // consumer is caught here and re-fetched by the retry.
                    const integrity::digest_t d =
                        integrity::enabled() ? integrity::checksum_of<float>(stack.span()) : 0;
                    faults::corrupt(names::kSiteSourceLoad,
                                    std::as_writable_bytes(stack.span()));
                    integrity::verify_of<float>(names::kSiteSourceLoad, stack.span(), d);
                    return stack;
                });
            };
            item.delta = cfg.retry ? faults::with_retry(names::kSiteSourceLoad, *cfg.retry, attempt)
                                   : attempt();
        }
        return item;
    };

    // A restarted run resumes with a cold texture, so the rows the completed
    // slabs had staged must be re-loaded, re-filtered and re-uploaded.  This
    // replays the *original* delta bands one by one rather than loading one
    // merged catch-up band: the fp32 filter packs two rows per complex
    // transform, so its rounding depends on how rows were paired within
    // each band, and only the original banding reproduces the original
    // run's texture — and therefore the restarted slabs — bitwise
    // (Resilience.CheckpointRestartMidRunIsBitwiseIdentical).
    auto upload_item = [&](const LoadItem& item) {
        if (item.encoded)
            bp.upload_band(*item.encoded);
        else if (item.delta)
            bp.upload_band(*item.delta);
    };
    if (resume > 0 && resume < static_cast<index_t>(plans.size())) {
        for (index_t i = 0; i < resume; ++i) {
            LoadItem item = load_one(i);
            if (!item.delta) continue;
            {
                ScopedSpan span(clock, Stage::Filter, i);
                filter_item(cfg, engine, parker ? &*parker : nullptr, counts, item);
            }
            upload_item(item);
        }
    }
    auto bp_one = [&](const LoadItem& item) {
        cancel_point("bp");
        upload_item(item);
        ScopedSpan span(clock, Stage::Bp, item.idx);
        return bp.backproject(item.plan);
    };
    auto reduce_one = [&](VolItem& v) {
        cancel_point("reduce");
        ScopedSpan span(clock, Stage::Mpi, v.idx);
        // Supervised: a collective stuck past the deadline (stalled peer)
        // surfaces as DeadlineExceeded instead of wedging the run.  Note
        // this fail-louds the *team* — mid-collective state cannot be
        // retried by one rank alone (DESIGN.md §3f).
        const bool is_root = wd.supervise(names::kWatchReduce, [&] {
            return reduce(v.slab, v.plan);
        });
        // Non-roots are done with this slab once the reduce completes.
        if (!is_root) {
            if (ckpt) ckpt->advance(v.idx + 1);
            slab_done();
        }
        return is_root;
    };
    auto store_one = [&](const VolItem& v) {
        cancel_point("store");
        ScopedSpan span(clock, Stage::Store, v.idx);
        store(v.slab, v.plan);
        // Roots record the reduced slab; the cursor only advances once the
        // slab is durably saved, so a crash between store and advance just
        // recomputes this slab.
        if (ckpt) {
            ckpt->save_slab(SlabId{v.idx}, v.slab);
            ckpt->advance(v.idx + 1);
        }
        slab_done();
    };

    if (!cfg.threaded) {
        for (index_t i = resume; i < static_cast<index_t>(plans.size()); ++i) {
            LoadItem item = load_one(i);
            {
                ScopedSpan span(clock, Stage::Filter, i);
                filter_item(cfg, engine, parker ? &*parker : nullptr, counts, item);
            }
            VolItem v{i, item.plan, bp_one(item)};
            if (reduce_one(v)) store_one(v);
        }
    } else {
        const std::size_t qd = static_cast<std::size_t>(cfg.queue_depth);
        pipeline::BoundedQueue<LoadItem> q0(qd), q1(qd);
        pipeline::BoundedQueue<VolItem> q2(qd), q3(qd);
        // Prefetch double-buffer machinery (cfg.prefetch): qp hands staged
        // bands to bp; qbuf is the recycle ring returning the staging
        // buffers.  Seeding qd+1 buffers keeps both ends non-blocking
        // against each other (bp can always return a buffer; prefetch
        // only waits when qd+1 stagings are already outstanding), and
        // recycling them makes the steady state allocation-free once
        // every buffer has grown to the largest band.
        std::optional<pipeline::BoundedQueue<BpItem>> qp;
        std::optional<pipeline::BoundedQueue<SlabBackprojector::Planes>> qbuf;
        if (cfg.prefetch) {
            qp.emplace(qd);
            qbuf.emplace(qd + 1);
            for (std::size_t i = 0; i < qd + 1; ++i) qbuf->push(SlabBackprojector::Planes{});
        }

        // Stage threads inherit the rank tag of the calling (minimpi rank)
        // thread so telemetry attributes their spans to the right rank.
        const RankId telemetry_rank = telemetry::current_rank();

        FirstError error;
        auto guard = [&](auto&& body) {
            try {
                body();
            } catch (...) {
                error.capture();
                q0.close();
                q1.close();
                q2.close();
                q3.close();
                if (qp) qp->close();
                if (qbuf) qbuf->close();
            }
        };

        std::thread t_load([&] {
            telemetry::set_current_rank(telemetry_rank);
            guard([&] {
                for (index_t i = resume; i < static_cast<index_t>(plans.size()); ++i)
                    q0.push(load_one(i));
                q0.close();
            });
        });
        std::thread t_filter([&] {
            telemetry::set_current_rank(telemetry_rank);
            guard([&] {
                while (auto item = q0.pop()) {
                    cancel_point("filter");
                    {
                        ScopedSpan span(clock, Stage::Filter, item->idx);
                        filter_item(cfg, engine, parker ? &*parker : nullptr, counts, *item);
                    }
                    q1.push(std::move(*item));
                }
                q1.close();
            });
        });
        // The prefetch stage overlaps band i+1's staging (row gather; q8
        // decode + digest verify) with slab i's back-projection — the
        // host half of Algorithm 3 moves off the bp thread's critical
        // path, the device copy stays on it.
        std::optional<std::thread> t_prefetch;
        if (cfg.prefetch)
            t_prefetch.emplace([&] {
                telemetry::set_current_rank(telemetry_rank);
                guard([&] {
                    while (auto item = q1.pop()) {
                        BpItem b{item->idx, item->plan, std::nullopt};
                        if (item->delta || item->encoded) {
                            auto storage = qbuf->pop();
                            if (!storage) break;  // pipeline tearing down
                            ScopedSpan span(clock, Stage::Prefetch, item->idx);
                            b.staged = item->encoded
                                           ? bp.stage_band(*item->encoded, std::move(*storage))
                                           : bp.stage_band(*item->delta, std::move(*storage));
                        }
                        qp->push(std::move(b));
                    }
                    qp->close();
                });
            });
        std::thread t_bp([&] {
            telemetry::set_current_rank(telemetry_rank);
            guard([&] {
                if (cfg.prefetch) {
                    while (auto b = qp->pop()) {
                        cancel_point("bp");
                        if (b->staged) {
                            bp.commit_band(*b->staged);
                            qbuf->push(std::move(b->staged->planes));
                        }
                        VolItem v{b->idx, b->plan, Volume{}};
                        {
                            ScopedSpan span(clock, Stage::Bp, b->idx);
                            v.slab = bp.backproject(b->plan);
                        }
                        q2.push(std::move(v));
                    }
                } else {
                    while (auto item = q1.pop()) {
                        VolItem v{item->idx, item->plan, bp_one(*item)};
                        q2.push(std::move(v));
                    }
                }
                q2.close();
            });
        });
        // The reduce stage runs on the caller's thread — the "MPI thread"
        // of Fig. 9 is the main thread in the paper, and minimpi
        // collectives must be called from the rank's own thread.
        std::thread t_store([&] {
            telemetry::set_current_rank(telemetry_rank);
            guard([&] {
                while (auto v = q3.pop()) store_one(*v);
            });
        });

        guard([&] {
            while (auto v = q2.pop()) {
                if (reduce_one(*v))
                    q3.push(std::move(*v));
            }
            q3.close();
        });

        t_load.join();
        t_filter.join();
        if (t_prefetch) t_prefetch->join();
        t_bp.join();
        t_store.join();
        error.rethrow_if_set();
    }

    stats.t_load = clock.busy(Stage::Load);
    stats.t_filter = clock.busy(Stage::Filter);
    stats.t_prefetch = clock.busy(Stage::Prefetch);
    stats.t_bp = clock.busy(Stage::Bp);
    stats.t_reduce = clock.busy(Stage::Mpi);
    stats.t_store = clock.busy(Stage::Store);
    stats.wall = clock.makespan();
    stats.h2d = bp.device().h2d_stats();
    stats.d2h = bp.device().d2h_stats();
    clock.publish();
    return stats;
}

}  // namespace xct::recon
