#pragma once
// BENCH trend gate: compare a freshly produced BENCH_*.json against the
// committed baseline and fail on regressions (DESIGN.md §3g).
//
// The benches emit flat two-level JSON ({"section": {"key": value}},
// bench/bench_common.hpp).  Metrics are classed by name pattern, first
// match wins:
//
//   * Exact        — deterministic values (byte counts, lane widths,
//                    warm_heap_events): any drift fails;
//   * HigherBetter — throughputs and speedups: fail when current <
//                    baseline * (1 - tolerance);
//   * LowerBetter  — latencies and runtimes: fail when current >
//                    baseline * (1 + tolerance);
//   * Cap          — absolute ceilings independent of the baseline
//                    (overhead percentages): fail when current > cap;
//   * Floor        — absolute floors independent of the baseline
//                    (quality bars like the q8 PSNR): fail when
//                    current < floor.
//
// Tolerances are deliberately generous for absolute throughputs (CI
// machines differ from the machine that produced the baseline) and
// tight for machine-independent ratios; `tolerance_scale` widens or
// narrows all relative tolerances at once (caps are never scaled).
// A metric present in the baseline but missing from the current run
// fails — silently dropping a measurement is itself a regression.

#include <map>
#include <string>
#include <vector>

namespace xct::bench_gate {

/// One parsed metric value: numeric when `is_number`, else the raw
/// string (quotes stripped).
struct Value {
    bool is_number = false;
    double number = 0.0;
    std::string text;
};

/// A parsed BENCH document: section -> key -> value.
using Doc = std::map<std::string, std::map<std::string, Value>>;

/// Parse the flat two-level BENCH JSON through the core codec
/// (core/json.hpp).  Throws std::invalid_argument on malformed JSON
/// (naming the byte offset) or on any other shape than an object of
/// section objects holding numbers and strings (naming the member).
Doc parse(const std::string& json);
Doc parse_file(const std::string& path);

enum class Class {
    Exact,
    HigherBetter,
    LowerBetter,
    Cap,
    Floor,
};

/// One gate rule: a '*'-glob over the full "section.key" metric name.
struct Rule {
    std::string pattern;
    Class cls = Class::Exact;
    double tolerance = 0.0;  ///< fractional, for HigherBetter/LowerBetter
    double cap = 0.0;        ///< absolute ceiling, for Cap
    double floor = 0.0;      ///< absolute floor, for Floor
};

/// The repo's metric classes (documented above; first match wins).
std::vector<Rule> default_rules();

/// Restrict a document to the named sections (the soak-smoke gate checks
/// only the `soak` section of BENCH_soak.json against the baseline).
Doc filter_sections(const Doc& doc, const std::vector<std::string>& sections);

/// '*'-glob match (any character sequence, including '.').
bool glob_match(const std::string& pattern, const std::string& name);

/// One comparison outcome.
struct Finding {
    std::string metric;   ///< "section.key"
    std::string message;  ///< human-readable verdict
    bool fail = false;
};

struct GateResult {
    std::vector<Finding> findings;  ///< every compared metric, in order
    bool pass = true;               ///< no finding failed
};

/// Compare `current` against `baseline` under `rules`.  Relative
/// tolerances are multiplied by `tolerance_scale`; caps are not.
GateResult compare(const Doc& baseline, const Doc& current, const std::vector<Rule>& rules,
                   double tolerance_scale = 1.0);

/// Render findings one per line ("PASS metric: ..." / "FAIL metric: ...").
std::string format(const GateResult& r);

}  // namespace xct::bench_gate
