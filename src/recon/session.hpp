#pragma once
// Re-entrant reconstruction session (DESIGN.md §3k) — the setup /
// run-to-completion split of the single-rank FDK path that the serve
// engine schedules.
//
// reconstruct_fdk() couples three things the daemon needs apart: config
// validation (cheap, fail-fast, safe to do at admission time), the
// long-running pipeline execution, and observation of that execution.
// ReconSession splits them: the constructor validates and plans (so a
// bad job is rejected before it ever holds a worker thread), run()
// executes the rank pipeline exactly once, and progress()/cancel() are
// safe from any thread while run() is executing on another.  Sessions
// hold no global state — any number may run concurrently, each with its
// own simulated device budget, which is what makes the multi-tenant
// engine possible.

#include <atomic>
#include <memory>

#include "core/cancel.hpp"
#include "recon/rank_pipeline.hpp"
#include "recon/source.hpp"

namespace xct::recon {

/// Lifecycle of a session.  Ready -> Running -> one terminal state.
enum class SessionState { Ready, Running, Done, Cancelled, Failed };

const char* to_string(SessionState s);

class ReconSession {
public:
    /// Validates the geometry, forces full view/slice ranges (sessions
    /// reconstruct whole volumes; ROI jobs slice at fetch time), and
    /// plans the slab schedule.  Throws std::invalid_argument on a bad
    /// configuration — nothing is allocated and no thread is consumed.
    ReconSession(RankConfig cfg, std::unique_ptr<ProjectionSource> source);

    ReconSession(const ReconSession&) = delete;
    ReconSession& operator=(const ReconSession&) = delete;

    /// Run the pipeline to completion, handing every slab — checkpoint
    /// replays included — to `store`.  Single-use: a second call throws
    /// std::logic_error.  Propagates core::Cancelled (state -> Cancelled),
    /// sim::DeviceOutOfMemory / fault-path errors (state -> Failed), or
    /// returns the pipeline statistics (state -> Done).  With
    /// cfg.checkpoint set, a rerun of an equivalent session resumes from
    /// the last completed slab and is bitwise-identical to an
    /// uninterrupted run — the serve journal's recovery contract.
    RankStats run(const Storer& store);

    /// --- observation, safe from any thread ---
    SessionState state() const { return state_.load(std::memory_order_acquire); }
    index_t total_slabs() const { return total_slabs_; }
    index_t completed_slabs() const { return slabs_done_.load(std::memory_order_acquire); }
    /// Fraction of slabs at their terminal stage, in [0, 1].
    double progress() const
    {
        return total_slabs_ > 0
                   ? static_cast<double>(completed_slabs()) / static_cast<double>(total_slabs_)
                   : 0.0;
    }
    core::CancelToken& cancel_token() { return cancel_; }
    const RankConfig& config() const { return cfg_; }

private:
    RankConfig cfg_;
    std::unique_ptr<ProjectionSource> source_;
    index_t total_slabs_ = 0;
    std::atomic<index_t> slabs_done_{0};
    std::atomic<SessionState> state_{SessionState::Ready};
    core::CancelToken cancel_;
};

}  // namespace xct::recon
