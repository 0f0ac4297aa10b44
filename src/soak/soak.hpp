#pragma once
// Fleet soak harness (DESIGN.md §3h): thousands of simulated ranks under
// a mixed reconstruction workload with corrupt / stall / dropout fault
// plans active, asserting the fleet invariants as machine-checkable
// outcomes after every run:
//
//   1. detection  — faults.injected.<site> == integrity.detected.<site>
//      for every corrupt-class site the schedule touched (real telemetry
//      counters, real fault engine, real digest verification);
//   2. liveness   — zero wedged jobs: every started job reaches done or
//      degraded-done;
//   3. fidelity   — the live tier's faulted reconstruction is bitwise
//      identical to its unfaulted twin;
//   4. tail       — per-job event-sim latency stays within the
//      perfmodel-derived bound (tail_latency_bound: slack x clean sim
//      runtime + injected recovery delay), summarised as the
//      p99-of-ratios metric `soak.p99_vs_predicted` <= 1.
//
// Two tiers share one schedule (schedule.hpp):
//
//   * the *event tier* scales to 10k ranks by layering each job's faults
//     onto perfmodel::simulate_faulted — injection decisions and
//     detection run through the real faults:: / integrity:: machinery on
//     sentinel buffers, only the data volume is virtual;
//   * the *live tier* runs a small faulted reconstruct_distributed job on
//     real minimpi pipelines (retry + watchdog + degraded reduce) and
//     bit-compares the recovered volume, anchoring the event tier's
//     modelling in real recovery code.
//
// Everything is deterministic in the seed: two runs produce identical
// schedules, identical per-site counters and an identical `soak` section
// in BENCH_soak.json (wall-clock readings live in a separate `soak_wall`
// section so replay comparison can ignore them).

#include <cstdint>
#include <string>
#include <vector>

#include "perfmodel/model.hpp"
#include "soak/schedule.hpp"

namespace xct::soak {

struct SoakConfig {
    ScheduleConfig schedule;
    index_t queue_capacity = 2;  ///< event-sim inter-stage FIFO depth
    double p99_slack = 1.5;      ///< tail bound: slack x clean sim runtime
    /// Event-tier watchdog model: a stall longer than this is detected
    /// (its latency still counts either way).
    double watchdog_timeout_s = 0.02;
    bool live = true;  ///< run the live minimpi tier
    /// The real watchdog deadline of the live job — loose enough that a
    /// busy CI host cannot trip it on clean stages, tight against the
    /// injected stall below.
    double live_watchdog_timeout_s = 0.2;
    double live_stall_delay_s = 0.6;  ///< stall injected into the live job
    /// Machine parameters for the event tier.  Fixed (never measured) so
    /// the virtual-time summary is reproducible across hosts.
    perfmodel::MachineParams machine = perfmodel::MachineParams::abci_v100();
    /// Plan each job's decomposition with autotune::plan_job instead of
    /// taking the schedule's fixed layout/batches.  The fixed choice is
    /// always scored too (must_score), so the planned fleet throughput is
    /// never worse.  Deterministic: planning prices candidates on
    /// `machine` above, never on measurements.
    bool autotune = false;
    /// Per-rank device budget the planner's feasibility check uses.
    std::size_t device_capacity = 512u << 20;
    /// Fit MachineParams from the live tier's measured per-rank stage
    /// times (autotune::Calibrator) and report them in the wall-clock
    /// section — never in the replay-compared `soak` section.
    bool calibrate = false;
};

/// Terminal state of one job; the harness guarantees there is no fourth
/// "still running" outcome — that is invariant 2.
enum class JobState { Done, DegradedDone, Wedged };

struct JobResult {
    JobId id{};
    JobState state = JobState::Done;
    double start_s = 0.0;    ///< virtual fleet time the job's ranks freed up
    double finish_s = 0.0;   ///< start + latency
    double latency_s = 0.0;  ///< event-sim service latency (faults included)
    double bound_s = 0.0;    ///< perfmodel tail bound for this job
    index_t injected = 0;    ///< corruptions replayed through the engine
    index_t detected = 0;    ///< of those, caught by integrity::verify
};

/// Per-site injected-vs-detected twin counters (registry deltas).
struct SiteCounts {
    std::string site;
    std::uint64_t injected = 0;
    std::uint64_t detected = 0;
};

struct SoakSummary {
    // Deterministic (seed-reproducible) fields — the `soak` JSON section.
    index_t fleet_ranks = 0;
    index_t epochs = 0;
    index_t jobs = 0;
    index_t degraded = 0;
    index_t wedged = 0;
    std::uint64_t injected = 0;  ///< corrupt-site total (both tiers)
    std::uint64_t detected = 0;
    std::uint64_t stall_injected = 0;
    std::uint64_t stall_detected = 0;
    bool sites_match = false;  ///< injected == detected per site
    std::vector<SiteCounts> sites;
    double makespan_s = 0.0;      ///< virtual fleet time to drain the schedule
    double jobs_per_hour = 0.0;   ///< jobs / virtual makespan
    double latency_p50_s = 0.0;   ///< event-sim job latency percentiles
    double latency_p95_s = 0.0;
    double latency_p99_s = 0.0;
    double p99_vs_predicted = 0.0;  ///< p99 of latency/bound ratios (<= 1)
    index_t live_jobs = 0;
    bool live_bitwise_identical = false;  ///< true when live tier off
    bool autotuned = false;               ///< jobs ran on planner-chosen shapes
    std::vector<JobResult> job_results;

    // Wall-clock fields — the `soak_wall` JSON section, excluded from
    // replay comparison.
    double harness_wall_s = 0.0;
    double live_wall_s = 0.0;
    /// Machine parameters fitted from the live tier's measured rank stats
    /// (SoakConfig::calibrate); host-dependent, so they live in the
    /// wall-clock books (`soak_machine` section).
    bool calibrated = false;
    perfmodel::MachineParams calibrated_machine{};
};

/// Drive the schedule through both tiers and aggregate the summary.
SoakSummary run(const SoakConfig& cfg);

/// The four fleet invariants; one human-readable violation per breach
/// (empty = all green).
std::vector<std::string> check_invariants(const SoakSummary& s);

/// Serialise the summary as a BENCH-style flat JSON document: the
/// deterministic `soak` section plus the wall-clock `soak_wall` section.
/// `fresh` truncates the file; otherwise the sections merge into an
/// existing BENCH document (bench-trend appends to BENCH_pr4.json) through
/// append_json_members, which refuses a file that is not a JSON object.
void write_bench_json(const std::string& path, const SoakSummary& s, bool fresh = true);

/// The deterministic `soak` section body alone (replay tests compare it).
std::string deterministic_json(const SoakSummary& s);

}  // namespace xct::soak
