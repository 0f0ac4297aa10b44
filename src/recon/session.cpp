#include "recon/session.hpp"

#include <stdexcept>

#include "core/decompose.hpp"

namespace xct::recon {

const char* to_string(SessionState s)
{
    switch (s) {
        case SessionState::Ready: return "ready";
        case SessionState::Running: return "running";
        case SessionState::Done: return "done";
        case SessionState::Cancelled: return "cancelled";
        case SessionState::Failed: return "failed";
    }
    return "unknown";
}

ReconSession::ReconSession(RankConfig cfg, std::unique_ptr<ProjectionSource> source)
    : cfg_(std::move(cfg)), source_(std::move(source))
{
    require(source_ != nullptr, "ReconSession: null source");
    cfg_.geometry.validate();
    cfg_.views = Range{0, cfg_.geometry.num_proj};
    cfg_.slices = Range{0, cfg_.geometry.vol.z};
    // Mirror run_rank's slab schedule so progress() has the right
    // denominator before the pipeline starts.
    const index_t nb = (cfg_.slices.length() + cfg_.batches - 1) / cfg_.batches;
    total_slabs_ = static_cast<index_t>(plan_slabs(cfg_.geometry, cfg_.slices, nb).size());
}

RankStats ReconSession::run(const Storer& store)
{
    SessionState expected = SessionState::Ready;
    if (!state_.compare_exchange_strong(expected, SessionState::Running))
        throw std::logic_error("ReconSession::run: session is single-use (state " +
                               std::string(to_string(expected)) + ")");

    RankControl ctl;
    ctl.cancel = &cancel_;
    ctl.slabs_done = &slabs_done_;
    RankStats stats;
    try {
        stats = run_rank(cfg_, *source_, identity_reducer, store, ctl);
    } catch (const core::Cancelled&) {
        state_.store(SessionState::Cancelled, std::memory_order_release);
        throw;
    } catch (...) {
        state_.store(SessionState::Failed, std::memory_order_release);
        throw;
    }
    state_.store(SessionState::Done, std::memory_order_release);
    return stats;
}

}  // namespace xct::recon
