#include "result.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/simd.hpp"

namespace xct::bench {

serve::Json read_json_file(const std::filesystem::path& path)
{
    std::ifstream f(path);
    if (!f) throw std::runtime_error("xct_bench: cannot read " + path.string());
    std::ostringstream ss;
    ss << f.rdbuf();
    return serve::Json::parse(ss.str());
}

const serve::Json& json_member(const serve::Json& j, const std::string& key)
{
    const serve::Json* m = j.find(key);
    if (m == nullptr) throw std::runtime_error("xct_bench: JSON lacks \"" + key + "\"");
    return *m;
}

double quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Labels build_labels()
{
    return Labels{XCT_BENCH_BUILD_TYPE, simd::backend_name()};
}

void RunResult::set(const std::string& name, double value, const std::string& unit,
                    std::size_t samples)
{
    if (!std::isfinite(value)) {
        problem(name + " is not finite");
        value = 0.0;
    }
    metrics[name] = Metric{value, unit, samples};
}

void RunResult::tally(bool ok, const std::string& why_failed)
{
    ++attempted;
    if (ok) return;
    ++failed;
    problem(why_failed);
}

std::string verdict_line(const RunResult& r, const std::vector<std::string>& names)
{
    std::ostringstream ss;
    ss << "{\"correct\": " << (r.correct() ? "true" : "false") << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
    bool first = true;
    for (const std::string& n : names) {
        const auto it = r.metrics.find(n);
        if (it == r.metrics.end()) continue;
        ss << (first ? "" : ", ") << serve::json_quote(n)
           << ": {\"value\": " << serve::json_number(it->second.value)
           << ", \"unit\": " << serve::json_quote(it->second.unit) << "}";
        first = false;
    }
    ss << "}}";
    return ss.str();
}

void write_record(const std::filesystem::path& path, const RunResult& r, const Labels& labels)
{
    std::ofstream f(path);
    if (!f) throw std::runtime_error("xct_bench: cannot write " + path.string());
    f << "{\"schema\":\"xct.bench.e2e.v1\",\"workload\":" << serve::json_quote(r.workload)
      << ",\"seed\":" << r.seed << ",\"seconds\":" << serve::json_number(r.seconds)
      << ",\"trace\":" << (r.trace ? "true" : "false")
      << ",\"labels\":{\"build_type\":" << serve::json_quote(labels.build_type)
      << ",\"simd\":" << serve::json_quote(labels.simd) << "}"
      << ",\"correct\":" << (r.correct() ? "true" : "false") << ",\"attempted\":" << r.attempted
      << ",\"failed\":" << r.failed << ",\"problems\":[";
    for (std::size_t i = 0; i < r.problems.size(); ++i)
        f << (i ? "," : "") << serve::json_quote(r.problems[i]);
    f << "],\"metrics\":{";
    bool first = true;
    for (const auto& [name, m] : r.metrics) {
        f << (first ? "" : ",") << "\n" << serve::json_quote(name)
          << ":{\"value\":" << serve::json_number(m.value)
          << ",\"unit\":" << serve::json_quote(m.unit) << ",\"samples\":" << m.samples << "}";
        first = false;
    }
    f << "}}\n";
}

}  // namespace xct::bench
