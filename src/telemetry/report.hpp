#pragma once
// Perfmodel-anchored run report (DESIGN.md §3g): what the run measured,
// next to what Eqs. 13-17 predicted for the same configuration.
//
// The paper's performance model projects per-batch stage times from
// micro-benchmarked machine parameters; a real run produces the same
// quantities from its pipeline timelines.  This module joins the two
// into one typed report:
//
//   * per-stage measured vs predicted seconds and the efficiency ratio
//     (predicted / measured — 1.0 means the run hit the model);
//   * roofline attribution: which Eq. 17 aggregate (CPU, GPU, reduce,
//     store) binds the projected runtime;
//   * per-batch measured stage times (from the recorded stage spans)
//     against the model's per-batch BatchTimes;
//   * per-rank wall/busy/overlap/efficiency with straggler flags — a
//     stage more than `straggler_k` times the fleet median is flagged;
//   * fleet percentiles (p50/p95/p99) read back from the log-bucketed
//     `fleet.stage.<stage>.seconds` histograms that the distributed
//     layer fills through its final minimpi gather.
//
// Everything here consumes plain timing PODs (RankTimings), not recon
// types: the report library sits above telemetry and perfmodel only, so
// any driver — CLI, tests, future autotuners — can feed it.

#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "perfmodel/model.hpp"
#include "telemetry/metrics.hpp"

namespace xct::telemetry::report {

/// One recorded stage span, reduced to what the report needs.
struct SpanTiming {
    std::string stage;  ///< "load", "filter", "bp", "mpi"/"reduce", "store"
    index_t item = -1;  ///< batch index, -1 = not batch-attributed
    double seconds = 0.0;
};

/// One rank's measured timings (bridge POD for recon::RankStats).
struct RankTimings {
    RankId rank{};
    GroupId group{};
    double load = 0.0;
    double filter = 0.0;
    double prefetch = 0.0;  ///< band staging; the model has no term for it
    double bp = 0.0;
    double reduce = 0.0;
    double store = 0.0;
    double wall = 0.0;
    std::vector<SpanTiming> spans;  ///< optional: enables per-batch rows

    double busy() const { return load + filter + prefetch + bp + reduce + store; }
    double overlap() const { return wall > 0.0 ? busy() / wall : 0.0; }
};

/// Measured-vs-predicted join for one pipeline stage.
struct StageReport {
    std::string stage;
    double measured_s = 0.0;   ///< fleet median of per-rank busy seconds
    double predicted_s = 0.0;  ///< Eqs. 13-16 aggregate for one rank (prefetch: 0, unmodelled)
    double efficiency = 0.0;   ///< predicted / measured (0 when unmeasured)
};

/// Measured-vs-predicted join for one batch (stage seconds each).
struct BatchReport {
    index_t batch = 0;
    perfmodel::BatchTimes measured;   ///< summed spans of that batch
    perfmodel::BatchTimes predicted;  ///< Eqs. 13-16
};

/// One rank's summary with anomaly flags.
struct RankReport {
    RankId rank{};
    GroupId group{};
    double wall_s = 0.0;
    double busy_s = 0.0;
    double overlap = 0.0;
    double efficiency = 0.0;  ///< projected runtime / measured wall
    std::vector<std::string> flags;  ///< e.g. "straggler:bp"
};

/// Fleet percentiles of one stage's per-rank busy seconds.
struct FleetStage {
    std::string stage;
    std::uint64_t ranks = 0;  ///< observations aggregated
    double p50_s = 0.0;
    double p95_s = 0.0;
    double p99_s = 0.0;
};

/// The complete report `xct_recon --report` serialises.
struct RunReport {
    perfmodel::RunConfig config;
    std::string binding_stage;     ///< "cpu" | "gpu" | "reduce" | "store"
    double predicted_runtime_s = 0.0;
    double predicted_gups = 0.0;
    double measured_wall_s = 0.0;  ///< max over ranks
    double efficiency = 0.0;       ///< predicted runtime / measured wall
    double straggler_k = 0.0;      ///< flag threshold used
    std::vector<StageReport> stages;
    std::vector<BatchReport> batches;
    std::vector<RankReport> ranks;
    std::vector<FleetStage> fleet;
};

/// Feed one rank's stage seconds into the process-wide fleet histograms
/// (`fleet.stage.<stage>.seconds`) — the single-rank counterpart of the
/// distributed layer's minimpi gather.
void observe_fleet(const RankTimings& t);

/// Read the fleet percentiles back out of a metrics snapshot.  Returns
/// one entry per `fleet.stage.<stage>.seconds` histogram present.
std::vector<FleetStage> fleet_percentiles(const MetricsSnapshot& snap);

/// Join measured rank timings with the Eq. 13-17 projection for `cfg`
/// under machine parameters `m`.  A rank stage above `straggler_k` times
/// the fleet median (and above 1 ms, to ignore timer noise) is flagged.
/// Fleet percentiles come from the process registry snapshot.
RunReport build(const perfmodel::RunConfig& cfg, const perfmodel::MachineParams& m,
                const std::vector<RankTimings>& ranks, double straggler_k = 1.5);

/// Serialise as a typed JSON document (schema "xct.report.v1").
void write_json(std::ostream& os, const RunReport& r);
void write_json(const std::filesystem::path& path, const RunReport& r);

}  // namespace xct::telemetry::report
