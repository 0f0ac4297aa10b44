#pragma once
// Per-layer probes of the traced run: each calls one layer's public
// function in-process on the workload's own generated data, inside a
// span, and reports the layer's rate.  Layers: filter, band_codec, sim,
// backproj, minimpi, io, phantom, integrity, flight, serve (admission
// pricing and the journal).

#include <cstdint>
#include <filesystem>

#include "result.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace xct::bench {

/// Run every in-process probe on `in` (the workload's input stack and
/// oracle) and add the layer metrics to `r`; sanity checks of probe
/// outputs count as attempted operations.  `reps` timed calls per probe.
void probe_layers(const Workload& w, const ReconInput& in, std::uint64_t seed,
                  const std::filesystem::path& scratch, index_t reps, SpanLog& spans,
                  RunResult& r);

/// Non-blank lines of every file under `dir` (the src/ size metric).
std::uint64_t nonblank_lines(const std::filesystem::path& dir);

}  // namespace xct::bench
