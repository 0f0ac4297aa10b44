#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/names.hpp"
#include "faults/fault.hpp"
#include "io/raw_io.hpp"
#include "phantom/shepp_logan.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "telemetry/metrics.hpp"

namespace xct::serve {

namespace {

double unix_now()
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

telemetry::Histogram& latency_histogram()
{
    return telemetry::registry().histogram(names::kMetricServeLatencySeconds,
                                           telemetry::exp_bounds(1e-3, 2.0, 24));
}

/// The spec's deterministic analytic source.  Radius inscribes the volume
/// so every geometry sees a phantom that fills its field of view.
std::unique_ptr<recon::ProjectionSource> make_source(const JobSpec& spec)
{
    const CbctGeometry& g = spec.geometry;
    const double radius_mm = 0.45 * static_cast<double>(g.vol.x) * g.dx;
    auto ellipsoids = spec.phantom_seed == 0
                          ? phantom::shepp_logan_3d(radius_mm)
                          : phantom::porous_bean(radius_mm, 8, spec.phantom_seed);
    return std::make_unique<recon::PhantomSource>(std::move(ellipsoids), g);
}

std::string accept_payload(std::uint64_t device_bytes, double predicted_s, double deadline_unix,
                           double submitted_unix)
{
    return "{\"device_bytes\":" + std::to_string(device_bytes) +
           ",\"predicted_s\":" + json_number(predicted_s) +
           ",\"deadline_unix\":" + json_number(deadline_unix) +
           ",\"submitted_unix\":" + json_number(submitted_unix) + "}";
}

}  // namespace

Engine::Engine(EngineConfig cfg) : cfg_(std::move(cfg))
{
    require(!cfg_.spool.empty(), "Engine: spool directory must be set");
    require(cfg_.workers > 0, "Engine: workers must be positive");
    require(cfg_.max_queued > 0, "Engine: max_queued must be positive");
    std::filesystem::create_directories(cfg_.spool / "out");
    std::filesystem::create_directories(cfg_.spool / "ckpt");
    journal_ = std::make_unique<Journal>(cfg_.spool / "journal.xjl", cfg_.fsync_journal);
    recover();
}

Engine::~Engine()
{
    stop();
}

void Engine::recover()
{
    auto& reg = telemetry::registry();
    MutexLock lk(m_);
    for (const Record& r : journal_->recovered()) {
        switch (r.type) {
            case RecordType::Submit: {
                Job j;
                try {
                    j.spec = decode_spec(Json::parse(r.payload));
                } catch (const std::invalid_argument&) {
                    break;  // unreadable spec: drop (journal predates format)
                }
                j.state = JobState::Queued;
                jobs_[r.job] = std::move(j);
                next_id_ = std::max(next_id_, r.job + 1);
                break;
            }
            case RecordType::Accept: {
                auto it = jobs_.find(r.job);
                if (it == jobs_.end()) break;
                try {
                    const Json p = Json::parse(r.payload);
                    const auto num = [&p](const std::string& key) {
                        const Json* v = p.find(key);
                        return v != nullptr ? v->as_number(key) : 0.0;
                    };
                    const Json* bytes = p.find("device_bytes");
                    it->second.device_bytes =
                        bytes != nullptr ? bytes->as_integer<std::uint64_t>("device_bytes") : 0;
                    it->second.predicted_s = num("predicted_s");
                    it->second.deadline_unix = num("deadline_unix");
                    it->second.submitted_unix = num("submitted_unix");
                } catch (const std::invalid_argument&) {
                }
                break;
            }
            case RecordType::Reject:
            case RecordType::Shed:
            case RecordType::Fail: {
                auto it = jobs_.find(r.job);
                if (it == jobs_.end()) break;
                it->second.state = r.type == RecordType::Reject  ? JobState::Rejected
                                   : r.type == RecordType::Shed ? JobState::Shed
                                                                : JobState::Failed;
                it->second.reason = r.payload;
                break;
            }
            case RecordType::Start: {
                auto it = jobs_.find(r.job);
                if (it != jobs_.end()) it->second.state = JobState::Queued;  // requeue below
                break;
            }
            case RecordType::Done: {
                auto it = jobs_.find(r.job);
                if (it == jobs_.end()) break;
                it->second.state = JobState::Done;
                it->second.output = r.payload;
                break;
            }
            case RecordType::Cancel: {
                auto it = jobs_.find(r.job);
                if (it != jobs_.end()) it->second.state = JobState::Cancelled;
                break;
            }
        }
    }
    // Requeue everything the journal left non-terminal.  Jobs that died
    // between Submit and a verdict are re-priced through admission with
    // the same deterministic arithmetic the original submit used.
    for (auto& [id, j] : jobs_) {
        if (is_terminal(j.state)) continue;
        if (j.device_bytes == 0) {
            const Decision d = price(j.spec, cfg_.machine);
            if (!d.admitted) {
                j.state = JobState::Rejected;
                j.reason = d.reason;
                try {
                    journal_->append(RecordType::Reject, id, d.reason);
                } catch (const faults::TransientError&) {
                }
                continue;
            }
            j.device_bytes = d.device_bytes;
            j.predicted_s = d.predicted_s;
            if (j.spec.deadline_s > 0.0 && j.deadline_unix == 0.0)
                j.deadline_unix = unix_now() + j.spec.deadline_s;
        }
        j.state = JobState::Queued;
        queue_.push_back(id);
        ++recovered_;
    }
    if (recovered_ > 0)
        reg.counter(names::kMetricServeRecovered).add(static_cast<std::uint64_t>(recovered_));
}

void Engine::start()
{
    MutexLock lk(m_);
    require(workers_.empty(), "Engine: already started");
    stopping_ = false;
    for (index_t w = 0; w < cfg_.workers; ++w)
        workers_.emplace_back([this] { worker_loop(); });
}

void Engine::stop()
{
    {
        MutexLock lk(m_);
        if (stopping_ && workers_.empty()) return;
        stopping_ = true;
        for (auto& [id, j] : jobs_)
            if (j.state == JobState::Running && j.session) j.session->cancel_token().request_cancel();
        work_cv_.notify_all();
        state_cv_.notify_all();
    }
    for (auto& t : workers_) t.join();
    workers_.clear();
}

SubmitResult Engine::submit(const JobSpec& spec)
{
    auto& reg = telemetry::registry();
    SubmitResult res;
    MutexLock lk(m_);
    reg.counter(names::kMetricServeSubmitted).add(1);
    res.id = next_id_++;
    if (stopping_) {
        res.reason = "stopping";
        res.detail = "engine is shutting down";
        reg.counter(names::kMetricServeRejected).add(1);
        reg.counter(std::string(names::kMetricServeRejectedPrefix) + res.reason).add(1);
        return res;
    }

    Job j;
    j.spec = spec;
    j.submitted_unix = unix_now();

    // Durable Submit first: a job the client saw accepted must exist in
    // the journal before any verdict does.
    try {
        journal_->append(RecordType::Submit, res.id, encode_spec(spec));
    } catch (const faults::TransientError& e) {
        res.reason = "fault";
        res.detail = e.what();
        j.state = JobState::Rejected;
        j.reason = res.reason;
        jobs_[res.id] = std::move(j);
        reg.counter(names::kMetricServeRejected).add(1);
        reg.counter(std::string(names::kMetricServeRejectedPrefix) + res.reason).add(1);
        return res;
    }

    Decision d = price(spec, cfg_.machine);
    if (d.admitted && queue_.size() >= static_cast<std::size_t>(cfg_.max_queued)) {
        // Bounded queue: try to make room by shedding expired work, then
        // reject rather than grow without bound.
        shed_expired_locked();
        if (queue_.size() >= static_cast<std::size_t>(cfg_.max_queued)) {
            d.admitted = false;
            d.reason = "queue_full";
            d.detail = "queue depth " + std::to_string(queue_.size()) + " at limit";
        }
    }
    if (d.admitted && d.device_bytes > cfg_.device_budget) {
        d.admitted = false;
        d.reason = "infeasible";
        d.detail = "requires " + std::to_string(d.device_bytes) +
                   " device bytes, daemon budget " + std::to_string(cfg_.device_budget);
    }

    res.reason = d.reason;
    res.detail = d.detail;
    res.predicted_s = d.predicted_s;
    j.device_bytes = d.device_bytes;
    j.predicted_s = d.predicted_s;
    j.reason = d.reason;

    if (!d.admitted) {
        j.state = JobState::Rejected;
        try {
            journal_->append(RecordType::Reject, res.id, d.reason);
        } catch (const faults::TransientError&) {
        }
        jobs_[res.id] = std::move(j);
        reg.counter(names::kMetricServeRejected).add(1);
        reg.counter(std::string(names::kMetricServeRejectedPrefix) + d.reason).add(1);
        state_cv_.notify_all();
        return res;
    }

    if (spec.deadline_s > 0.0) j.deadline_unix = j.submitted_unix + spec.deadline_s;
    try {
        journal_->append(RecordType::Accept, res.id,
                         accept_payload(d.device_bytes, d.predicted_s, j.deadline_unix,
                                        j.submitted_unix));
    } catch (const faults::TransientError& e) {
        res.reason = "fault";
        res.detail = e.what();
        j.state = JobState::Rejected;
        j.reason = res.reason;
        jobs_[res.id] = std::move(j);
        reg.counter(names::kMetricServeRejected).add(1);
        reg.counter(std::string(names::kMetricServeRejectedPrefix) + res.reason).add(1);
        return res;
    }

    res.accepted = true;
    j.state = JobState::Queued;
    jobs_[res.id] = std::move(j);
    queue_.push_back(res.id);
    reg.counter(names::kMetricServeAccepted).add(1);
    work_cv_.notify_one();
    state_cv_.notify_all();
    return res;
}

void Engine::shed_expired_locked()
{
    const double now = unix_now();
    std::vector<JobId> expired;
    for (const JobId id : queue_) {
        const Job& j = jobs_.at(id);
        if (j.deadline_unix > 0.0 && now > j.deadline_unix) expired.push_back(id);
    }
    if (expired.empty()) return;
    // Lowest priority first — the overload policy drops the cheapest
    // broken promises first (they are all broken; order is about which
    // tenant feels it first when only part of the backlog must go).
    std::stable_sort(expired.begin(), expired.end(), [&](JobId a, JobId b) {
        return jobs_.at(a).spec.priority < jobs_.at(b).spec.priority;
    });
    auto& reg = telemetry::registry();
    for (const JobId id : expired) {
        Job& j = jobs_.at(id);
        j.state = JobState::Shed;
        j.reason = "deadline expired in queue";
        queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
        try {
            journal_->append(RecordType::Shed, id, j.reason);
        } catch (const faults::TransientError&) {
        }
        reg.counter(names::kMetricServeShed).add(1);
    }
    state_cv_.notify_all();
}

JobId Engine::pick_locked() const
{
    JobId best = 0;
    std::size_t best_pos = 0;
    for (std::size_t pos = 0; pos < queue_.size(); ++pos) {
        const JobId id = queue_[pos];
        const Job& j = jobs_.at(id);
        if (j.device_bytes > cfg_.device_budget - device_used_) continue;
        if (best == 0) {
            best = id;
            best_pos = pos;
            continue;
        }
        const Job& b = jobs_.at(best);
        const double js = tenant_service_.count(j.spec.tenant)
                              ? tenant_service_.at(j.spec.tenant)
                              : 0.0;
        const double bs = tenant_service_.count(b.spec.tenant)
                              ? tenant_service_.at(b.spec.tenant)
                              : 0.0;
        // priority desc, then least-served tenant, then FIFO.
        const bool wins = j.spec.priority > b.spec.priority ||
                          (j.spec.priority == b.spec.priority &&
                           (js < bs || (js == bs && pos < best_pos)));
        if (wins) {
            best = id;
            best_pos = pos;
        }
    }
    return best;
}

void Engine::worker_loop()
{
    for (;;) {
        JobId id = 0;
        {
            UniqueLock lk(m_);
            for (;;) {
                m_.assert_held();
                if (stopping_) return;
                shed_expired_locked();
                id = pick_locked();
                if (id != 0) break;
                // Timed wait so queued deadlines are shed promptly even
                // with no submit/finish traffic to ring the condvar.
                work_cv_.wait_for(lk, std::chrono::milliseconds(50), [&] {
                    m_.assert_held();
                    return stopping_ || !queue_.empty();
                });
            }
            Job& j = jobs_.at(id);
            queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
            j.state = JobState::Running;
            device_used_ += j.device_bytes;
            ++running_;
            tenant_service_[j.spec.tenant] += j.predicted_s;

            recon::RankConfig rc;
            rc.geometry = j.spec.geometry;
            rc.batches = j.spec.batches;
            rc.device_capacity = j.spec.device_capacity;
            rc.threaded = true;
            rc.checkpoint = recon::CheckpointConfig{ckpt_dir(id)};
            if (j.deadline_unix > 0.0)
                rc.watchdog_timeout_s = std::max(j.deadline_unix - unix_now(), 1e-3);
            bool started = false;
            try {
                j.session = std::make_shared<recon::ReconSession>(rc, make_source(j.spec));
                j.total_slabs = j.session->total_slabs();
                started = true;
            } catch (const std::exception& e) {
                // Session setup failed after admission (should not happen
                // for a priced spec) — fail the job, give the budget back.
                device_used_ -= j.device_bytes;
                --running_;
                j.state = JobState::Failed;
                j.reason = e.what();
                try {
                    journal_->append(RecordType::Fail, id, j.reason);
                } catch (const faults::TransientError&) {
                }
                telemetry::registry().counter(names::kMetricServeFailed).add(1);
            }
            if (started) {
                if (j.user_cancel || stopping_) j.session->cancel_token().request_cancel();
                try {
                    journal_->append(RecordType::Start, id, "");
                } catch (const faults::TransientError&) {
                }
            }
            state_cv_.notify_all();
            if (!started) continue;
        }
        run_job(id);
    }
}

void Engine::run_job(JobId id)
{
    std::shared_ptr<recon::ReconSession> session;
    std::filesystem::path out;
    double submitted = 0.0;
    {
        MutexLock lk(m_);
        Job& j = jobs_.at(id);
        session = j.session;
        out = out_path(id, j.spec);
        submitted = j.submitted_unix;
    }
    try {
        // Slabs stream into the output's temp file as they finish; only a
        // successful run publishes it (rename), before the Done record.
        io::VolumeWriter writer(out, session->config().geometry.vol);
        session->run(recon::file_storer(writer));
        writer.commit();
        std::error_code ec;
        std::filesystem::remove_all(ckpt_dir(id), ec);
        try {
            journal_->append(RecordType::Done, id, out.string());
        } catch (const faults::TransientError&) {
            // Not durable: restart reruns the job; deterministic specs
            // regenerate the identical volume, so convergence is safe.
        }
        {
            MutexLock lk(m_);
            Job& j = jobs_.at(id);
            j.output = out.string();
        }
        finish(id, JobState::Done, "");
        telemetry::registry().counter(names::kMetricServeCompleted).add(1);
        latency_histogram().observe(unix_now() - submitted);
    } catch (const core::Cancelled& e) {
        bool user = false;
        {
            MutexLock lk(m_);
            user = jobs_.at(id).user_cancel;
        }
        if (user) {
            try {
                journal_->append(RecordType::Cancel, id, "");
            } catch (const faults::TransientError&) {
            }
            finish(id, JobState::Cancelled, e.what());
            telemetry::registry().counter(names::kMetricServeCancelled).add(1);
        } else {
            // Engine shutdown: leave the job non-terminal (journal holds
            // Start but no verdict) so the next engine over this spool
            // requeues it from its checkpoints — same path as kill -9.
            finish(id, JobState::Queued, "interrupted by shutdown");
        }
    } catch (const std::exception& e) {
        try {
            journal_->append(RecordType::Fail, id, e.what());
        } catch (const faults::TransientError&) {
        }
        finish(id, JobState::Failed, e.what());
        telemetry::registry().counter(names::kMetricServeFailed).add(1);
        latency_histogram().observe(unix_now() - submitted);
    }
}

void Engine::finish(JobId id, JobState state, const std::string& reason)
{
    MutexLock lk(m_);
    Job& j = jobs_.at(id);
    device_used_ -= j.device_bytes;
    --running_;
    j.state = state;
    j.reason = reason;
    if (j.session) {
        j.completed_slabs = j.session->completed_slabs();
        j.total_slabs = j.session->total_slabs();
    }
    j.session.reset();
    work_cv_.notify_all();
    state_cv_.notify_all();
}

JobStatus Engine::status_locked(const Job& j, JobId id) const
{
    JobStatus st;
    st.id = id;
    st.state = j.state;
    st.tenant = j.spec.tenant;
    st.priority = j.spec.priority;
    st.reason = j.reason;
    st.predicted_s = j.predicted_s;
    st.device_bytes = j.device_bytes;
    st.output = j.output;
    st.total_slabs = j.total_slabs;
    st.completed_slabs = j.completed_slabs;
    if (j.session) {
        st.total_slabs = j.session->total_slabs();
        st.completed_slabs = j.session->completed_slabs();
        st.progress = j.session->progress();
    } else if (j.state == JobState::Done) {
        st.progress = 1.0;
        st.completed_slabs = st.total_slabs;
    } else if (st.total_slabs > 0) {
        st.progress = static_cast<double>(st.completed_slabs) /
                      static_cast<double>(st.total_slabs);
    }
    return st;
}

JobStatus Engine::status(JobId id) const
{
    MutexLock lk(m_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        throw std::out_of_range("serve: unknown job id " + std::to_string(id));
    return status_locked(it->second, id);
}

std::vector<JobStatus> Engine::list() const
{
    MutexLock lk(m_);
    std::vector<JobStatus> out;
    out.reserve(jobs_.size());
    for (const auto& [id, j] : jobs_) out.push_back(status_locked(j, id));
    return out;
}

bool Engine::cancel(JobId id)
{
    auto& reg = telemetry::registry();
    MutexLock lk(m_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        throw std::out_of_range("serve: unknown job id " + std::to_string(id));
    Job& j = it->second;
    if (is_terminal(j.state)) return false;
    j.user_cancel = true;
    if (j.state == JobState::Queued) {
        queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
        j.state = JobState::Cancelled;
        j.reason = "cancelled while queued";
        try {
            journal_->append(RecordType::Cancel, id, "");
        } catch (const faults::TransientError&) {
        }
        reg.counter(names::kMetricServeCancelled).add(1);
        state_cv_.notify_all();
        return true;
    }
    // Running: poke the token; the pipeline polls it at every stage
    // boundary, so the worker unwinds (and releases the device budget)
    // within one stage.
    if (j.session) j.session->cancel_token().request_cancel();
    return true;
}

JobStatus Engine::wait(JobId id, double timeout_s)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(std::max(timeout_s, 0.0)));
    UniqueLock lk(m_);
    for (;;) {
        m_.assert_held();
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            throw std::out_of_range("serve: unknown job id " + std::to_string(id));
        if (is_terminal(it->second.state)) return status_locked(it->second, id);
        if (std::chrono::steady_clock::now() >= deadline) return status_locked(it->second, id);
        state_cv_.wait_for(lk, std::chrono::milliseconds(20), [&] {
            m_.assert_held();
            auto i2 = jobs_.find(id);
            return i2 == jobs_.end() || is_terminal(i2->second.state);
        });
    }
}

void Engine::drain()
{
    UniqueLock lk(m_);
    for (;;) {
        m_.assert_held();
        if ((queue_.empty() && running_ == 0) || stopping_) return;
        state_cv_.wait_for(lk, std::chrono::milliseconds(20), [&] {
            m_.assert_held();
            return stopping_ || (queue_.empty() && running_ == 0);
        });
    }
}

std::filesystem::path Engine::out_path(JobId id, const JobSpec& spec) const
{
    if (!spec.output.empty()) return spec.output;
    return cfg_.spool / "out" / ("job-" + std::to_string(id) + ".vol");
}

std::filesystem::path Engine::ckpt_dir(JobId id) const
{
    return cfg_.spool / "ckpt" / ("job-" + std::to_string(id));
}

}  // namespace xct::serve
