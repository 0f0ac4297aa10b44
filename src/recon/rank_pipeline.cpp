#include "recon/rank_pipeline.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

#include "core/mutex.hpp"
#include "core/names.hpp"
#include "faults/checkpoint.hpp"
#include "faults/fault.hpp"
#include "integrity/integrity.hpp"
#include "io/raw_io.hpp"
#include "pipeline/queue.hpp"
#include "pipeline/timeline.hpp"
#include "telemetry/trace.hpp"

namespace xct::recon {

using pipeline::ScopedSpan;
using pipeline::Stage;

namespace {

struct VolItem {
    index_t idx = 0;
    SlabPlan plan;
    Volume slab;
};

}  // namespace

BandPath::BandPath(const RankConfig& cfg, ProjectionSource& source,
                   const std::vector<SlabPlan>& plans, pipeline::StageClock* clock,
                   core::CancelToken* cancel)
    : cfg_(cfg), source_(source), clock_(clock), cancel_(cancel),
      bp_(SlabBackprojector::Config{cfg.geometry, cfg.views, cfg.device_capacity, cfg.h2d_gbps,
                                    cfg.d2h_gbps, cfg.retry},
          plans),
      engine_(cfg.geometry, cfg.window), watchdog_(cfg.watchdog_timeout_s)
{
    require(!source.raw_counts() || cfg.beer.has_value(),
            "BandPath: source emits raw counts but no Beer-law calibration configured");
    if (source.raw_counts()) prologue_.beer = &*cfg_.beer;
    // Short scans need Parker redundancy weighting of this share's views.
    if (cfg.geometry.short_scan()) prologue_.parker = &parker_.emplace(cfg.geometry, cfg.views);
}

void BandPath::poll(const char* where) const
{
    if (cancel_ != nullptr) cancel_->check(where);
}

Band BandPath::load(index_t idx, const SlabPlan& plan)
{
    poll("load");
    ScopedSpan span(clock_, Stage::Load, idx);
    Band band{idx, plan, std::nullopt, std::nullopt, std::nullopt};
    if (plan.delta.empty()) return band;
    auto attempt = [&] {
        return watchdog_.supervise(names::kWatchSourceLoad, [&] {
            faults::check(names::kSiteSourceLoad);
            faults::stall_point(names::kSiteSourceLoad);
            ProjectionStack stack = source_.load(cfg_.views, plan.delta);
            // Producer-boundary digest, then the transit corruption point,
            // then verify: a flip between source and consumer is caught
            // here and re-fetched by the retry.
            const integrity::digest_t d =
                integrity::enabled() ? integrity::checksum_of<float>(stack.span()) : 0;
            faults::corrupt(names::kSiteSourceLoad, std::as_writable_bytes(stack.span()));
            integrity::verify_of<float>(names::kSiteSourceLoad, stack.span(), d);
            return stack;
        });
    };
    band.delta =
        cfg_.retry ? faults::with_retry(names::kSiteSourceLoad, *cfg_.retry, attempt) : attempt();
    return band;
}

void BandPath::prepare(Band& band) const
{
    poll("filter");
    ScopedSpan span(clock_, Stage::Filter, band.idx);
    if (!band.delta) return;
    if (cfg_.band_codec != io::BandCodec::Q8) {
        engine_.apply(*band.delta, prologue_);
        return;
    }
    Extent extent;
    engine_.apply(*band.delta, prologue_, &extent);
    band.encoded = io::encode_band(*band.delta, extent);
    band.delta.reset();
}

void BandPath::stage(Band& band, SlabBackprojector::Planes storage) const
{
    poll("prefetch");
    ScopedSpan span(clock_, Stage::Prefetch, band.idx);
    band.staged = band.encoded ? bp_.stage_band(*band.encoded, std::move(storage))
                               : bp_.stage_band(*band.delta, std::move(storage));
    // The planes hold the band now: drop the loaded form, or every band
    // in flight between prefetch and bp is held twice.
    band.delta.reset();
    band.encoded.reset();
}

SlabBackprojector::Planes BandPath::commit(Band& band)
{
    bp_.commit_band(*band.staged);
    return std::move(band.staged->planes);
}

Volume BandPath::backproject(index_t idx, const SlabPlan& plan)
{
    poll("bp");
    ScopedSpan span(clock_, Stage::Bp, idx);
    return bp_.backproject(plan);
}

void BandPath::advance(index_t idx, const SlabPlan& plan)
{
    Band band = load(idx, plan);
    prepare(band);
    if (band.empty()) return;
    stage(band, std::move(spare_));
    spare_ = commit(band);
}

void BandPath::replay(const std::vector<SlabPlan>& plans, index_t resume)
{
    if (resume >= static_cast<index_t>(plans.size())) return;  // nothing left to compute
    for (index_t i = 0; i < resume; ++i) advance(i, plans[static_cast<std::size_t>(i)]);
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
    // held by the band path below — within one stage boundary.
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
    // Deadline supervision (--watchdog-timeout): the load and reduce
    // stages are the ones that block on external progress (storage, the
    // other ranks of the group) and therefore the ones a stall wedges.
    BandPath path(cfg, source, plans, &clock, ctl.cancel);
    const index_t nslabs = static_cast<index_t>(plans.size());
    RankStats stats;

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
        resume = std::min(ckpt->validated_cursor(), nslabs);
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

    // A restarted run resumes with a cold texture: rebuild it.
    path.replay(plans, resume);

    auto reduce_one = [&](VolItem& v) {
        cancel_point("reduce");
        ScopedSpan span(clock, Stage::Mpi, v.idx);
        // Supervised: a collective stuck past the deadline (stalled peer)
        // surfaces as DeadlineExceeded instead of wedging the run.  Note
        // this fail-louds the *team* — mid-collective state cannot be
        // retried by one rank alone (DESIGN.md §3f).
        const bool is_root = path.watchdog().supervise(names::kWatchReduce, [&] {
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
        for (index_t i = resume; i < nslabs; ++i) {
            const SlabPlan& plan = plans[static_cast<std::size_t>(i)];
            path.advance(i, plan);
            VolItem v{i, plan, path.backproject(i, plan)};
            if (reduce_one(v)) store_one(v);
        }
    } else {
        const std::size_t qd = static_cast<std::size_t>(cfg.queue_depth);
        pipeline::BoundedQueue<Band> loaded(qd), filtered(qd), staged(qd);
        pipeline::BoundedQueue<VolItem> partial(qd), reduced(qd);
        // The recycle ring returns staging buffers from bp to prefetch.
        // Seeding qd+1 buffers keeps both ends non-blocking against each
        // other (bp can always return a buffer; prefetch only waits when
        // qd+1 stagings are already outstanding), and recycling them makes
        // the steady state allocation-free once every buffer has grown to
        // the largest band.
        pipeline::BoundedQueue<SlabBackprojector::Planes> ring(qd + 1);
        for (std::size_t i = 0; i <= qd; ++i) ring.push({});

        FirstError error;
        auto guard = [&](auto&& body) {
            try {
                body();
            } catch (...) {
                error.capture();
                loaded.close();
                filtered.close();
                staged.close();
                partial.close();
                reduced.close();
                ring.close();
            }
        };
        // The one place stage threads start.  They inherit the rank tag of
        // the calling (minimpi rank) thread so telemetry attributes their
        // spans to the right rank.
        const RankId telemetry_rank = telemetry::current_rank();
        std::vector<std::thread> threads;
        auto spawn = [&](auto body) {
            threads.emplace_back([&guard, telemetry_rank, body] {
                telemetry::set_current_rank(telemetry_rank);
                guard(body);
            });
        };
        // Started inside the caller's guard: if a thread fails to start, the
        // queues close and the ones already running drain before the join.
        guard([&] {
            spawn([&] {
                for (index_t i = resume; i < nslabs; ++i)
                    loaded.push(path.load(i, plans[static_cast<std::size_t>(i)]));
                loaded.close();
            });
            spawn([&] {
                while (auto band = loaded.pop()) {
                    path.prepare(*band);
                    filtered.push(std::move(*band));
                }
                filtered.close();
            });
            // The prefetch stage overlaps band i+1's staging (row gather;
            // q8 decode + digest verify) with slab i's back-projection: the
            // host half of Algorithm 3 stays off the bp thread's critical
            // path, the device copy stays on it.
            spawn([&] {
                while (auto band = filtered.pop()) {
                    if (!band->empty()) {
                        auto storage = ring.pop();
                        if (!storage) break;  // pipeline tearing down
                        path.stage(*band, std::move(*storage));
                    }
                    staged.push(std::move(*band));
                }
                staged.close();
            });
            spawn([&] {
                while (auto band = staged.pop()) {
                    if (band->staged) ring.push(path.commit(*band));
                    Volume slab = path.backproject(band->idx, band->plan);
                    partial.push(VolItem{band->idx, band->plan, std::move(slab)});
                }
                partial.close();
            });
            spawn([&] {
                while (auto v = reduced.pop()) store_one(*v);
            });
            // The reduce stage runs on the caller's thread: the "MPI thread"
            // of Fig. 9 is the main thread in the paper, and minimpi
            // collectives must be called from the rank's own thread.
            while (auto v = partial.pop())
                if (reduce_one(*v)) reduced.push(std::move(*v));
            reduced.close();
        });
        for (std::thread& t : threads) t.join();
        error.rethrow_if_set();
    }

    stats.t_load = clock.busy(Stage::Load);
    stats.t_filter = clock.busy(Stage::Filter);
    stats.t_prefetch = clock.busy(Stage::Prefetch);
    stats.t_bp = clock.busy(Stage::Bp);
    stats.t_reduce = clock.busy(Stage::Mpi);
    stats.t_store = clock.busy(Stage::Store);
    stats.wall = clock.makespan();
    stats.h2d = path.device().h2d_stats();
    stats.d2h = path.device().d2h_stats();
    clock.publish();
    return stats;
}

}  // namespace xct::recon
