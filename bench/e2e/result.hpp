#pragma once
// Result of one benchmark run: named metrics with units and sample
// counts, the attempted/failed operation tally, and the reasons a run is
// incorrect.  Also the two serialisations: the one-line verdict printed
// last on stdout, and the fuller --out record (labels, sample counts)
// that `xct_bench --compare` reads.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace xct::bench {

/// Parse the JSON document at `path` (with serve::Json, the repository's
/// one JSON reader).
serve::Json read_json_file(const std::filesystem::path& path);
/// Member `key` of object `j`; throws std::runtime_error naming it if absent.
const serve::Json& json_member(const serve::Json& j, const std::string& key);

/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;  ///< observations the value summarises
};

/// Build labels: results of different build types or SIMD backends are
/// never compared.
struct Labels {
    std::string build_type;
    std::string simd;
};
Labels build_labels();

struct RunResult {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::map<std::string, Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;  ///< empty: every output checked correct

    void set(const std::string& name, double value, const std::string& unit,
             std::size_t samples = 1);
    /// Count one operation; a failed one also records why.
    void tally(bool ok, const std::string& why_failed = {});
    void problem(const std::string& why) { problems.push_back(why); }
    bool correct() const { return problems.empty(); }
};

/// The verdict line: {"correct", "attempted", "failed", "metrics"} with
/// only the metrics named in `names`, each as {"value", "unit"}.
std::string verdict_line(const RunResult& r, const std::vector<std::string>& names);

/// Full record (schema xct.bench.e2e.v1) for --out / --compare.
void write_record(const std::filesystem::path& path, const RunResult& r, const Labels& labels);

}  // namespace xct::bench
