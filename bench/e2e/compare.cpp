#include "compare.hpp"

#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "result.hpp"

namespace xct::bench {

namespace {

/// The untraced records of one set, grouped by workload.
struct Set {
    std::map<std::string, std::map<std::string, std::vector<double>>> values;
    std::map<std::string, double> attempted, failed;
    std::set<std::string> labels;
};

Set load_set(const std::string& files)
{
    Set s;
    std::stringstream list(files);
    std::string file;
    while (std::getline(list, file, ',')) {
        if (file.empty()) continue;
        const serve::Json rec = read_json_file(file);
        if (json_member(rec, "trace").as_bool("trace")) continue;  // per-layer runs are not gated
        const std::string w = json_member(rec, "workload").as_string("workload");
        const serve::Json& labels = json_member(rec, "labels");
        s.labels.insert(json_member(labels, "build_type").as_string("build_type") + "/" +
                        json_member(labels, "simd").as_string("simd"));
        s.attempted[w] += json_member(rec, "attempted").as_number("attempted");
        s.failed[w] += json_member(rec, "failed").as_number("failed");
        for (const auto& [name, m] : json_member(rec, "metrics").object)
            s.values[w][name].push_back(json_member(m, "value").as_number(name));
    }
    return s;
}

}  // namespace

std::vector<MetricSpec> read_metric_specs(const std::filesystem::path& benchmark_json,
                                          const std::string& section)
{
    const serve::Json doc = read_json_file(benchmark_json);
    std::vector<MetricSpec> out;
    for (const serve::Json& m : json_member(doc, section).array) {
        MetricSpec s;
        s.name = json_member(m, "name").as_string("name");
        s.unit = json_member(m, "unit").as_string("unit");
        s.higher_is_better = json_member(m, "better").as_string("better") == "higher";
        if (const serve::Json* b = m.find("bound")) s.bound = b->as_number("bound");
        out.push_back(s);
    }
    return out;
}

int compare_sets(const std::filesystem::path& benchmark_json, const std::string& set_a,
                 const std::string& set_b)
{
    const std::vector<MetricSpec> specs = read_metric_specs(benchmark_json, "end_to_end");
    const Set a = load_set(set_a);
    const Set b = load_set(set_b);
    std::set<std::string> labels = a.labels;
    labels.insert(b.labels.begin(), b.labels.end());
    if (labels.size() > 1) {
        std::fprintf(stderr, "xct_bench: refusing to compare different builds:");
        for (const std::string& l : labels) std::fprintf(stderr, " %s", l.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }
    int workloads = 0;
    bool breach = false;
    std::printf("%-20s %-16s %34s %34s %8s %6s\n", "workload", "metric", "A  q1 / median / q3",
                "B  q1 / median / q3", "worse", "bound");
    for (const auto& [w, a_metrics] : a.values) {
        const auto bw = b.values.find(w);
        if (bw == b.values.end()) continue;
        ++workloads;
        for (const MetricSpec& spec : specs) {
            const auto av = a_metrics.find(spec.name);
            const auto bv = bw->second.find(spec.name);
            if (av == a_metrics.end() || bv == bw->second.end()) {
                std::printf("%-20s %-16s missing in %s\n", w.c_str(), spec.name.c_str(),
                            av == a_metrics.end() ? "A" : "B");
                breach = true;
                continue;
            }
            const double ma = median(av->second), mb = median(bv->second);
            const double worse = (spec.higher_is_better ? ma - mb : mb - ma) / ma;
            const bool bad = worse > spec.bound;
            breach = breach || bad;
            std::printf("%-20s %-16s %10.4g / %10.4g / %10.4g %10.4g / %10.4g / %10.4g "
                        "%+7.2f%% %5.0f%%%s\n",
                        w.c_str(), spec.name.c_str(), quantile(av->second, 0.25), ma,
                        quantile(av->second, 0.75), quantile(bv->second, 0.25), mb,
                        quantile(bv->second, 0.75), 100.0 * worse, 100.0 * spec.bound,
                        bad ? "  BREACH" : "");
        }
        // Failures have no tolerance: any rise in the failed share breaches.
        const double fa = a.failed.at(w) / a.attempted.at(w);
        const double fb = b.failed.at(w) / b.attempted.at(w);
        if (fb > fa) {
            std::printf("%-20s %-16s %.4g -> %.4g  BREACH\n", w.c_str(), "failed_fraction", fa, fb);
            breach = true;
        }
    }
    if (workloads == 0) {
        std::fprintf(stderr, "xct_bench: the two sets share no workload\n");
        return 2;
    }
    std::printf("%s\n", breach ? "compare: BREACH" : "compare: within bounds");
    return breach ? 1 : 0;
}

}  // namespace xct::bench
