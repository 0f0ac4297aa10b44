#pragma once
// Exporters for the telemetry layer:
//
//   * write_chrome_trace — Chrome trace-event JSON (the "JSON Array
//     Format" with a traceEvents wrapper): one complete event (ph "X",
//     microsecond ts/dur from `t0`) per flight-ring span, pid = rank,
//     tid = lane, plus process_name metadata per rank.  Loadable in
//     Perfetto (ui.perfetto.dev) and chrome://tracing.
//   * write_metrics_csv / write_metrics_json — flat dumps of a
//     MetricsSnapshot (histograms expanded into .le_<bound> rows).

#include <filesystem>
#include <ostream>

#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"

namespace xct::telemetry {

/// Timestamps are seconds since `t0` on the flight timebase; spans that
/// began before `t0` are clamped to it.
void write_chrome_trace(std::ostream& os, const std::vector<flight::FlightEvent>& events,
                        double t0);
void write_chrome_trace(const std::filesystem::path& path,
                        const std::vector<flight::FlightEvent>& events, double t0);

/// CSV with header `name,kind,value`; counters and gauges one row each,
/// histograms as `<name>.le_<bound>`, `<name>.le_inf`, `<name>.count`
/// and `<name>.sum` rows.
void write_metrics_csv(std::ostream& os, const MetricsSnapshot& s);
void write_metrics_csv(const std::filesystem::path& path, const MetricsSnapshot& s);

void write_metrics_json(std::ostream& os, const MetricsSnapshot& s);
void write_metrics_json(const std::filesystem::path& path, const MetricsSnapshot& s);

}  // namespace xct::telemetry
