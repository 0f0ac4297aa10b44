#pragma once
// Shared helpers for the table/figure regeneration harnesses.
//
// Every bench prints (a) locally *measured* numbers from real runs on the
// simulated substrate at laptop scale, and (b) *modelled* numbers at the
// paper's full scale from the Sec. 5 performance model with ABCI-like
// parameters.  Absolute values differ from the paper (different machine);
// the shapes — who wins, crossovers, scaling exponents — are the
// reproduction targets (see EXPERIMENTS.md).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/json.hpp"
#include "io/datasets.hpp"

namespace xct::bench {

inline void heading(const std::string& title, const std::string& paper_ref)
{
    std::printf("\n================================================================\n");
    std::printf("%s\n(reproduces %s of Chen et al., SC'21)\n", title.c_str(), paper_ref.c_str());
    std::printf("================================================================\n");
}

inline void note(const std::string& text)
{
    std::printf("-- %s\n", text.c_str());
}

/// Format a byte count as MiB with one decimal.
inline double mib(std::uint64_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// ---- machine-readable perf trajectory (BENCH_*.json) ----------------------
//
// Benches emit flat one-level JSON objects of named sections so CI can
// archive throughput numbers per PR.  Values are preformatted JSON
// literals (json_number / json_quote from core/json.hpp).

/// Write `"section": { key: value, ... }` into the JSON object file at
/// `path`.  `fresh` truncates the file first (each binary passes true for
/// its first section so stale runs don't accumulate); otherwise the
/// section is merged into the existing top-level object.
inline void write_json_section(const std::string& path, const std::string& section,
                               const std::vector<std::pair<std::string, std::string>>& kv,
                               bool fresh = false)
{
    std::string body = json_quote(section) + ": {";
    for (std::size_t i = 0; i < kv.size(); ++i) {
        if (i != 0) body += ", ";
        body += json_quote(kv[i].first) + ": " + kv[i].second;
    }
    body += "}";
    append_json_members(path, body, fresh);
}

}  // namespace xct::bench
