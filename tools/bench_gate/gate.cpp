#include "gate.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/json.hpp"

namespace xct::bench_gate {

namespace {

[[noreturn]] void malformed(const std::string& what)
{
    throw std::invalid_argument("bench_gate: malformed BENCH json: " + what);
}

std::string describe(const Value& v)
{
    if (!v.is_number) return "\"" + v.text + "\"";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.8g", v.number);
    return buf;
}

void add(GateResult& r, const std::string& metric, bool fail, std::string message)
{
    r.findings.push_back(Finding{metric, std::move(message), fail});
    if (fail) r.pass = false;
}

}  // namespace

Doc parse(const std::string& json)
{
    const Json root = Json::parse(json);
    if (root.type != Json::Type::Object) malformed("top level is not an object");
    Doc doc;
    for (const auto& [section, metrics] : root.object) {
        if (metrics.type != Json::Type::Object)
            malformed("section \"" + section + "\" is not an object");
        for (const auto& [key, v] : metrics.object) {
            Value& out = doc[section][key];
            if (v.type == Json::Type::Number) {
                out.is_number = true;
                out.number = v.number;
            } else if (v.type == Json::Type::String) {
                out.text = v.string;
            } else {
                malformed(section + "." + key + " is neither a number nor a string");
            }
        }
    }
    return doc;
}

Doc parse_file(const std::string& path)
{
    std::ifstream in(path);
    if (!in) throw std::invalid_argument("bench_gate: cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str());
}

bool glob_match(const std::string& pattern, const std::string& name)
{
    // Iterative '*' glob: on mismatch, backtrack to the last star and
    // retry one character further along the name.
    std::size_t pi = 0, ni = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (ni < name.size()) {
        if (pi < pattern.size() && pattern[pi] == '*') {
            star = pi++;
            mark = ni;
        } else if (pi < pattern.size() && pattern[pi] == name[ni]) {
            ++pi;
            ++ni;
        } else if (star != std::string::npos) {
            pi = star + 1;
            ni = ++mark;
        } else {
            return false;
        }
    }
    while (pi < pattern.size() && pattern[pi] == '*') ++pi;
    return pi == pattern.size();
}

std::vector<Rule> default_rules()
{
    // First match wins — specific caps and exact classes come before the
    // broad throughput/latency globs.
    return {
        // Absolute ceilings: observability must stay cheap regardless of
        // what the baseline machine measured.  The flight bound is derived
        // (span count x per-span cost) and stable; the integrity bound is
        // a differential timing of a ~30 ms run, where scheduler noise
        // alone spans several points — its cap catches digesting becoming
        // a first-order cost, not single-digit drift.
        Rule{"flight.overhead_percent", Class::Cap, 0.0, 2.0},
        Rule{"integrity.overhead_percent", Class::Cap, 0.0, 15.0},
        // Deterministic values: identical code => identical numbers.
        // (simd_backend is deliberately ungated: the dispatch is
        // machine-dependent, and a lost-vectorisation collapse already
        // fails the updates_per_s and speedup gates.)
        Rule{"*.warm_heap_events", Class::Exact, 0.0, 0.0},
        Rule{"*.simd_lanes", Class::Exact, 0.0, 0.0},
        Rule{"*.padded_len", Class::Exact, 0.0, 0.0},
        Rule{"fft.n", Class::Exact, 0.0, 0.0},
        // q8 band transport + autotune (DESIGN.md §3j).  These must sit
        // before the broad '*bytes*' Exact glob: the transport byte
        // counts gate lower-better (compression may only improve), the
        // compression ratio is capped at the acceptance bar (<= 1/3 of
        // raw), the quantisation quality holds an absolute PSNR floor,
        // and the planner may never pick worse than the fixed CLI shape
        // it scored alongside (ratio cap at 1).  The planner's picks and
        // candidate count are deterministic on the fixed bench machine.
        Rule{"transport.q8_bytes_over_raw", Class::Cap, 0.0, 1.0 / 3.0},
        Rule{"transport.q8_psnr_db", Class::Floor, 0.0, 0.0, 40.0},
        Rule{"transport.q8_max_err_vs_bound", Class::Cap, 0.0, 1.0},
        Rule{"transport.*bytes*", Class::LowerBetter, 0.0, 0.0},
        Rule{"autotune.planned_over_fixed_runtime", Class::Cap, 0.0, 1.0},
        Rule{"autotune.jobs_per_hour", Class::HigherBetter, 0.0, 0.0},
        Rule{"autotune.picked_*", Class::Exact, 0.0, 0.0},
        Rule{"autotune.candidates_scored", Class::Exact, 0.0, 0.0},
        Rule{"*bytes*", Class::Exact, 0.0, 0.0},
        Rule{"*.spans", Class::Exact, 0.0, 0.0},
        // Soak invariants (tools/xct_soak): detection ratio, wedged-job
        // count, per-site match and live bitwise identity are exact by
        // construction (the harness is deterministic in the seed); the
        // tail ratio is capped at the perfmodel bound itself; throughput
        // is virtual-time yet gated generously so schedule rebalances
        // do not trip CI while a scheduling collapse does.
        Rule{"soak.detection_ratio", Class::Exact, 0.0, 0.0},
        Rule{"soak.sites_match", Class::Exact, 0.0, 0.0},
        Rule{"soak.wedged_jobs", Class::Exact, 0.0, 0.0},
        Rule{"soak.live_bitwise_identical", Class::Exact, 0.0, 0.0},
        Rule{"soak.autotuned", Class::Exact, 0.0, 0.0},
        Rule{"soak.p99_vs_predicted", Class::Cap, 0.0, 1.0},
        Rule{"soak.jobs_per_hour", Class::HigherBetter, 0.60, 0.0},
        Rule{"soak.latency_*", Class::LowerBetter, 1.50, 0.0},
        // Machine-independent ratios: tighter than raw throughputs.
        Rule{"*speedup*", Class::HigherBetter, 0.35, 0.0},
        // Raw throughputs and latencies: CI hardware differs from the
        // baseline machine, so the tolerance is generous — the gate
        // catches collapses (vectorisation lost, plan cache broken), not
        // single-digit noise.  The us/ns latency globs must precede the
        // throughput glob: "ns_per_span" contains "per_s".
        Rule{"*.us_per_*", Class::LowerBetter, 1.50, 0.0},
        Rule{"*.ns_per_*", Class::LowerBetter, 1.50, 0.0},
        Rule{"*per_s*", Class::HigherBetter, 0.60, 0.0},
        Rule{"*seconds*", Class::LowerBetter, 1.50, 0.0},
    };
}

Doc filter_sections(const Doc& doc, const std::vector<std::string>& sections)
{
    Doc out;
    for (const std::string& s : sections) {
        const auto it = doc.find(s);
        if (it != doc.end()) out.insert(*it);
    }
    return out;
}

GateResult compare(const Doc& baseline, const Doc& current, const std::vector<Rule>& rules,
                   double tolerance_scale)
{
    GateResult r;
    for (const auto& [section, metrics] : baseline) {
        const auto cur_section = current.find(section);
        for (const auto& [key, base] : metrics) {
            const std::string metric = section + "." + key;
            const Rule* rule = nullptr;
            for (const Rule& candidate : rules) {
                if (glob_match(candidate.pattern, metric)) {
                    rule = &candidate;
                    break;
                }
            }
            const Value* cur = nullptr;
            if (cur_section != current.end()) {
                const auto it = cur_section->second.find(key);
                if (it != cur_section->second.end()) cur = &it->second;
            }
            if (cur == nullptr) {
                // A vanished measurement is a regression in coverage even
                // when no rule classes the metric.
                add(r, metric, true, "missing from current run (baseline " + describe(base) + ")");
                continue;
            }
            if (rule == nullptr) {
                add(r, metric, false, "unclassified, not gated (current " + describe(*cur) + ")");
                continue;
            }
            if (base.is_number != cur->is_number) {
                add(r, metric, true,
                    "type changed: baseline " + describe(base) + ", current " + describe(*cur));
                continue;
            }
            if (rule->cls == Class::Exact) {
                const bool same = base.is_number ? base.number == cur->number
                                                 : base.text == cur->text;
                add(r, metric, !same,
                    same ? "exact match (" + describe(*cur) + ")"
                         : "exact metric drifted: baseline " + describe(base) + ", current " +
                               describe(*cur));
                continue;
            }
            if (!cur->is_number) {
                add(r, metric, true, "non-numeric value " + describe(*cur) + " for numeric rule");
                continue;
            }
            char buf[160];
            if (rule->cls == Class::Cap) {
                const bool ok = cur->number <= rule->cap;
                std::snprintf(buf, sizeof(buf), "%.8g %s cap %.8g", cur->number,
                              ok ? "within" : "EXCEEDS", rule->cap);
                add(r, metric, !ok, buf);
                continue;
            }
            if (rule->cls == Class::Floor) {
                const bool ok = cur->number >= rule->floor;
                std::snprintf(buf, sizeof(buf), "%.8g %s floor %.8g", cur->number,
                              ok ? "above" : "BELOW", rule->floor);
                add(r, metric, !ok, buf);
                continue;
            }
            const double tol = rule->tolerance * tolerance_scale;
            const bool higher = rule->cls == Class::HigherBetter;
            const double limit =
                higher ? base.number * (1.0 - tol) : base.number * (1.0 + tol);
            const bool ok = higher ? cur->number >= limit : cur->number <= limit;
            std::snprintf(buf, sizeof(buf), "%.8g vs baseline %.8g (%s limit %.8g)%s",
                          cur->number, base.number, higher ? "min" : "max", limit,
                          ok ? "" : " REGRESSED");
            add(r, metric, !ok, buf);
        }
    }
    // Metrics only in the current run are fine (new coverage) but worth
    // surfacing so the baseline gets refreshed.
    for (const auto& [section, metrics] : current) {
        const auto base_section = baseline.find(section);
        for (const auto& [key, cur] : metrics) {
            if (base_section != baseline.end() &&
                base_section->second.find(key) != base_section->second.end())
                continue;
            add(r, section + "." + key, false,
                "new metric, not in baseline (current " + describe(cur) + ")");
        }
    }
    return r;
}

std::string format(const GateResult& r)
{
    std::string out;
    for (const Finding& f : r.findings)
        out += std::string(f.fail ? "FAIL " : "ok   ") + f.metric + ": " + f.message + "\n";
    out += r.pass ? "bench_gate: PASS\n" : "bench_gate: FAIL\n";
    return out;
}

}  // namespace xct::bench_gate
