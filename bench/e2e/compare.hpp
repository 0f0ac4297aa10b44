#pragma once
// `xct_bench --compare A B`: two sets of --out records (each a
// comma-separated file list) judged against the bounds BENCHMARK.json
// fixes for every end-to-end metric.

#include <filesystem>
#include <string>
#include <vector>

namespace xct::bench {

/// One metric as BENCHMARK.json declares it.
struct MetricSpec {
    std::string name;
    std::string unit;
    bool higher_is_better = false;
    double bound = 0.0;  ///< allowed worsening as a share of the A median
};

/// The "end_to_end" or "per_layer" list of BENCHMARK.json.
std::vector<MetricSpec> read_metric_specs(const std::filesystem::path& benchmark_json,
                                          const std::string& section);

/// For every workload in both sets and every end-to-end metric, compare
/// the B median against the A median; also flag any rise in the failed
/// share.  Prints a table (medians and quartiles per set); returns 0 when
/// nothing breaches its bound, 1 on a breach, 2 on unusable input (no
/// common workload, mismatched build labels).
int compare_sets(const std::filesystem::path& benchmark_json, const std::string& set_a,
                 const std::string& set_b);

}  // namespace xct::bench
