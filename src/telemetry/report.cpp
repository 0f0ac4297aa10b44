#include "telemetry/report.hpp"

#include <algorithm>
#include <fstream>
#include <map>

#include "core/json.hpp"
#include "core/names.hpp"

namespace xct::telemetry::report {

namespace {

// The six pipeline stages in report order, with the per-rank measured
// accessor and the matching Eqs. 13-16 aggregate of a Projection.  The
// model prices no host-side band staging, so the prefetch row predicts 0
// (efficiency 0).
struct StageMap {
    const char* stage;
    double RankTimings::* measured;
    double perfmodel::Projection::* predicted;  ///< nullptr: unmodelled
};

constexpr StageMap kStageMap[] = {
    {names::kStageLoad, &RankTimings::load, &perfmodel::Projection::t_load},
    {names::kStageFilter, &RankTimings::filter, &perfmodel::Projection::t_filter},
    {names::kStagePrefetch, &RankTimings::prefetch, nullptr},
    {names::kStageBp, &RankTimings::bp, &perfmodel::Projection::t_bp},
    {names::kStageReduce, &RankTimings::reduce, &perfmodel::Projection::t_reduce},
    {names::kStageStore, &RankTimings::store, &perfmodel::Projection::t_store},
};

/// Ignore stage times below this when flagging stragglers: at micro
/// scales the fleet median is timer noise, not a baseline.
constexpr double kStragglerFloorSeconds = 1e-3;

double median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
    return v[mid];
}

double ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/// Map a recorded span's stage name onto a BatchTimes field (the
/// pipeline calls its reduce stage "mpi"; "restore" replays are not a
/// model stage and return nullptr).
double perfmodel::BatchTimes::* batch_field(const std::string& stage)
{
    if (stage == "load") return &perfmodel::BatchTimes::load;
    if (stage == "filter") return &perfmodel::BatchTimes::filter;
    if (stage == "bp") return &perfmodel::BatchTimes::bp;
    if (stage == "mpi" || stage == "reduce") return &perfmodel::BatchTimes::reduce;
    if (stage == "store") return &perfmodel::BatchTimes::store;
    return nullptr;
}

std::string batch_times_json(const perfmodel::BatchTimes& t)
{
    return "{\"load\": " + json_number(t.load) + ", \"filter\": " + json_number(t.filter) +
           ", \"h2d\": " + json_number(t.h2d) + ", \"bp\": " + json_number(t.bp) +
           ", \"d2h\": " + json_number(t.d2h) + ", \"reduce\": " + json_number(t.reduce) +
           ", \"store\": " + json_number(t.store) + "}";
}

}  // namespace

void observe_fleet(const RankTimings& t)
{
    for (const StageMap& s : kStageMap) fleet_observe(s.stage, t.*(s.measured));
    fleet_observe(names::kStageWall, t.wall);
    registry().counter(names::kMetricFleetRanks).add(1);
}

std::vector<FleetStage> fleet_percentiles(const MetricsSnapshot& snap)
{
    const std::string prefix = names::kMetricFleetStagePrefix;
    const std::string suffix = ".seconds";
    std::vector<FleetStage> out;
    for (const HistogramSample& h : snap.histograms) {
        if (h.name.size() <= prefix.size() + suffix.size()) continue;
        if (h.name.compare(0, prefix.size(), prefix) != 0) continue;
        if (h.name.compare(h.name.size() - suffix.size(), suffix.size(), suffix) != 0) continue;
        FleetStage f;
        f.stage = h.name.substr(prefix.size(), h.name.size() - prefix.size() - suffix.size());
        f.ranks = h.count;
        f.p50_s = histogram_quantile(h, 0.50);
        f.p95_s = histogram_quantile(h, 0.95);
        f.p99_s = histogram_quantile(h, 0.99);
        out.push_back(std::move(f));
    }
    return out;
}

RunReport build(const perfmodel::RunConfig& cfg, const perfmodel::MachineParams& m,
                const std::vector<RankTimings>& ranks, double straggler_k)
{
    require(straggler_k > 1.0, "report::build: straggler_k must exceed 1");
    const perfmodel::Projection proj = perfmodel::project(cfg, m);

    RunReport r;
    r.config = cfg;
    r.predicted_runtime_s = proj.runtime;
    r.predicted_gups = proj.gups;
    r.straggler_k = straggler_k;

    // Roofline attribution: the Eq. 17 aggregate that binds the
    // steady-state (perfect-overlap) runtime.
    const double agg_cpu = proj.t_load + proj.t_filter;
    const double agg_gpu = proj.t_h2d + proj.t_bp + proj.t_d2h;
    r.binding_stage = "cpu";
    double binding = agg_cpu;
    for (const auto& [name, value] :
         {std::pair<const char*, double>{"gpu", agg_gpu}, {"reduce", proj.t_reduce},
          {"store", proj.t_store}}) {
        if (value > binding) {
            binding = value;
            r.binding_stage = name;
        }
    }

    // Per-stage join: fleet median of the per-rank busy seconds against
    // the model's one-rank aggregate.
    std::map<std::string, double> stage_median;
    for (const StageMap& s : kStageMap) {
        std::vector<double> values;
        values.reserve(ranks.size());
        for (const RankTimings& t : ranks) values.push_back(t.*(s.measured));
        StageReport sr;
        sr.stage = s.stage;
        sr.measured_s = median(std::move(values));
        sr.predicted_s = s.predicted ? proj.*(s.predicted) : 0.0;
        sr.efficiency = ratio(sr.predicted_s, sr.measured_s);
        stage_median[sr.stage] = sr.measured_s;
        r.stages.push_back(std::move(sr));
    }

    // Per-batch join: mean over ranks of the summed span seconds of each
    // batch, against Eqs. 13-16's per-batch prediction.
    std::map<index_t, perfmodel::BatchTimes> batch_measured;
    std::size_t ranks_with_spans = 0;
    for (const RankTimings& t : ranks) {
        if (t.spans.empty()) continue;
        ++ranks_with_spans;
        for (const SpanTiming& sp : t.spans) {
            if (sp.item < 0) continue;
            double perfmodel::BatchTimes::* field = batch_field(sp.stage);
            if (field == nullptr) continue;
            batch_measured[sp.item].*field += sp.seconds;
        }
    }
    for (auto& [batch, measured] : batch_measured) {
        if (ranks_with_spans > 1) {
            const double inv = 1.0 / static_cast<double>(ranks_with_spans);
            measured.load *= inv;
            measured.filter *= inv;
            measured.bp *= inv;
            measured.reduce *= inv;
            measured.store *= inv;
        }
        BatchReport br;
        br.batch = batch;
        br.measured = measured;
        if (batch >= 0 && static_cast<std::size_t>(batch) < proj.batches.size())
            br.predicted = proj.batches[static_cast<std::size_t>(batch)];
        r.batches.push_back(std::move(br));
    }

    // Per-rank summaries with straggler flags.
    for (const RankTimings& t : ranks) {
        RankReport rr;
        rr.rank = t.rank;
        rr.group = t.group;
        rr.wall_s = t.wall;
        rr.busy_s = t.busy();
        rr.overlap = t.overlap();
        rr.efficiency = ratio(proj.runtime, t.wall);
        for (const StageMap& s : kStageMap) {
            const double mine = t.*(s.measured);
            const double med = stage_median[s.stage];
            if (mine > kStragglerFloorSeconds && med > 0.0 && mine > straggler_k * med)
                rr.flags.push_back(std::string("straggler:") + s.stage);
        }
        r.ranks.push_back(std::move(rr));
        r.measured_wall_s = std::max(r.measured_wall_s, t.wall);
    }
    r.efficiency = ratio(proj.runtime, r.measured_wall_s);

    r.fleet = fleet_percentiles(registry().snapshot());
    return r;
}

void write_json(std::ostream& os, const RunReport& r)
{
    const CbctGeometry& g = r.config.geometry;
    os << "{\n  \"schema\": \"xct.report.v1\",\n";
    os << "  \"config\": {\"volume\": [" << g.vol.x << ", " << g.vol.y << ", " << g.vol.z
       << "], \"detector\": [" << g.nu << ", " << g.nv << "], \"views\": " << g.num_proj
       << ", \"groups\": " << r.config.layout.num_groups
       << ", \"ranks_per_group\": " << r.config.layout.ranks_per_group
       << ", \"batches\": " << r.config.batches << "},\n";
    os << "  \"model\": {\"runtime_s\": " << json_number(r.predicted_runtime_s)
       << ", \"gups\": " << json_number(r.predicted_gups)
       << ", \"binding_stage\": " << json_quote(r.binding_stage) << "},\n";
    os << "  \"measured\": {\"wall_s\": " << json_number(r.measured_wall_s)
       << ", \"efficiency\": " << json_number(r.efficiency)
       << ", \"straggler_k\": " << json_number(r.straggler_k) << "},\n";

    os << "  \"stages\": [";
    for (std::size_t i = 0; i < r.stages.size(); ++i) {
        const StageReport& s = r.stages[i];
        os << (i ? ",\n    " : "\n    ") << "{\"stage\": " << json_quote(s.stage)
           << ", \"measured_s\": " << json_number(s.measured_s)
           << ", \"predicted_s\": " << json_number(s.predicted_s)
           << ", \"efficiency\": " << json_number(s.efficiency) << "}";
    }
    os << "\n  ],\n";

    os << "  \"batches\": [";
    for (std::size_t i = 0; i < r.batches.size(); ++i) {
        const BatchReport& b = r.batches[i];
        os << (i ? ",\n    " : "\n    ") << "{\"batch\": " << b.batch
           << ", \"measured\": " << batch_times_json(b.measured)
           << ", \"predicted\": " << batch_times_json(b.predicted) << "}";
    }
    os << "\n  ],\n";

    os << "  \"ranks\": [";
    for (std::size_t i = 0; i < r.ranks.size(); ++i) {
        const RankReport& k = r.ranks[i];
        os << (i ? ",\n    " : "\n    ") << "{\"rank\": " << k.rank.value()
           << ", \"group\": " << k.group.value() << ", \"wall_s\": " << json_number(k.wall_s)
           << ", \"busy_s\": " << json_number(k.busy_s)
           << ", \"overlap\": " << json_number(k.overlap)
           << ", \"efficiency\": " << json_number(k.efficiency) << ", \"flags\": [";
        for (std::size_t f = 0; f < k.flags.size(); ++f)
            os << (f ? ", " : "") << json_quote(k.flags[f]);
        os << "]}";
    }
    os << "\n  ],\n";

    os << "  \"fleet\": [";
    for (std::size_t i = 0; i < r.fleet.size(); ++i) {
        const FleetStage& f = r.fleet[i];
        os << (i ? ",\n    " : "\n    ") << "{\"stage\": " << json_quote(f.stage)
           << ", \"ranks\": " << f.ranks << ", \"p50_s\": " << json_number(f.p50_s)
           << ", \"p95_s\": " << json_number(f.p95_s) << ", \"p99_s\": " << json_number(f.p99_s)
           << "}";
    }
    os << "\n  ]\n}\n";
}

void write_json(const std::filesystem::path& path, const RunReport& r)
{
    std::ofstream os(path, std::ios::binary);
    require(os.is_open(), "report: cannot open " + path.string());
    write_json(os, r);
}

}  // namespace xct::telemetry::report
