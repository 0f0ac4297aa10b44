#pragma once
// The serve side of the benchmark: a spawned xct_serve daemon, its
// client requests over AF_UNIX, and the serve-mix job stream driven as a
// closed loop (a fixed number of jobs in flight, status polled every
// 10 ms, each job timed from submit to the first poll that sees it Done).

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/volume.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "spans.hpp"
#include "spawn.hpp"

namespace xct::bench {

/// A daemon with the default serving configuration (2 workers, 256 MiB
/// budget, fsync'd journal) over a fresh spool in `dir`.
class Daemon {
public:
    Daemon(const std::filesystem::path& exe, const std::filesystem::path& dir);
    /// Ping until the daemon answers; throws after `timeout_s`.
    void wait_ready(double timeout_s = 30.0);
    /// One request; throws std::runtime_error unless the reply has ok:true.
    serve::Json call(const serve::Request& req, double timeout_s = 30.0);
    /// Ask for shutdown and reap the daemon (its RSS is the serve peak).
    ChildExit stop();

private:
    std::filesystem::path socket_;
    Child child_;
};

/// One submitted job as the client saw it (now_s() clock).
struct JobTiming {
    serve::JobId id = 0;
    index_t spec_key = -1;  ///< which spec (and oracle) of the run the job ran
    bool accepted = false;
    std::string reason;  ///< reject or failure reason
    double submitted = 0.0;
    double submit_rtt_s = 0.0;
    double running = -1.0;  ///< first poll that saw Running
    double finished = -1.0; ///< first poll that saw a terminal state
    serve::JobState state = serve::JobState::Queued;
    std::string output;
    double latency_s() const { return finished - submitted; }
    double queue_wait_s() const { return (running >= 0.0 ? running : finished) - submitted; }
    double exec_s() const { return finished - (running >= 0.0 ? running : finished); }
};

/// The eight job shapes of serve-mix: tomo_00030/8 reconstructed to 48^3
/// (Nc = 4) or 64^3 (Nc = 8), phantom seed 0..3 (0: Shepp-Logan).
struct MixSpec {
    index_t volume = 48;
    index_t batches = 4;
    std::uint64_t phantom_seed = 0;
};
const std::vector<MixSpec>& mix_specs();
serve::JobSpec job_spec(const MixSpec& m);

/// The daemon's own analytic source for `spec`, reconstructed by the
/// Algorithm-1 oracle.
Volume job_oracle(const serve::JobSpec& spec);

/// Submit `spec` (the run's spec number `spec_key`) and poll it to a
/// terminal state (one job in flight).
JobTiming run_one_job(Daemon& d, const serve::JobSpec& spec, index_t spec_key, double timeout_s,
                      SpanLog& spans);

/// The serve-mix closed loop: keep `in_flight` jobs submitted until
/// `seconds` have passed and at least `min_jobs` were submitted, then
/// drain.  Each job's shape (80/20 % 48^3/64^3, phantom seed 0..3), tenant
/// (a/b) and priority (20/50/30 % high/normal/low) come in exact
/// proportions, in an order shuffled by `seed`.  With a traced `spans`,
/// each job becomes a span with queued/running children, one lane per
/// in-flight slot.
std::vector<JobTiming> run_mix(Daemon& d, std::uint64_t seed, double seconds,
                               std::size_t min_jobs, std::size_t in_flight, SpanLog& spans);

}  // namespace xct::bench
