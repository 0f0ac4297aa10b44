#include "telemetry/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <set>

#include "core/json.hpp"

namespace xct::telemetry {

namespace {

std::string fmt_double(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return buf;
}

std::ofstream open_out(const std::filesystem::path& path)
{
    std::ofstream os(path);
    require(os.good(), "telemetry: cannot open " + path.string() + " for writing");
    return os;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<flight::FlightEvent>& events,
                        double t0)
{
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first) os << ",";
        first = false;
        os << "\n";
    };

    // Name each pid lane so Perfetto shows "rank N" process headers.
    std::set<RankId> ranks;
    for (const auto& e : events) ranks.insert(e.rank);
    for (const RankId r : ranks) {
        sep();
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << r
           << ",\"tid\":0,\"args\":{\"name\":\"rank " << r << "\"}}";
    }

    for (const auto& e : events) {
        // Clamp to t0: spans that began before it would get negative
        // timestamps, which the viewers mishandle.
        const double begin = std::max(0.0, e.begin - t0);
        const double dur = std::max(0.0, e.end - t0 - begin);
        sep();
        os << "{\"name\":" << json_quote(e.name) << ",\"cat\":" << json_quote(e.cat)
           << ",\"ph\":\"X\",\"ts\":" << fmt_double(begin * 1e6)
           << ",\"dur\":" << fmt_double(dur * 1e6) << ",\"pid\":" << e.rank
           << ",\"tid\":" << e.lane;
        if (e.item >= 0 || e.bytes > 0) {
            os << ",\"args\":{";
            if (e.item >= 0) os << "\"item\":" << e.item;
            if (e.bytes > 0) {
                if (e.item >= 0) os << ",";
                os << "\"bytes\":" << e.bytes;
            }
            os << "}";
        }
        os << "}";
    }
    os << "\n]}\n";
}

void write_chrome_trace(const std::filesystem::path& path,
                        const std::vector<flight::FlightEvent>& events, double t0)
{
    auto os = open_out(path);
    write_chrome_trace(os, events, t0);
}

void write_metrics_csv(std::ostream& os, const MetricsSnapshot& s)
{
    os << "name,kind,value\n";
    for (const auto& c : s.counters) os << c.name << ",counter," << c.value << "\n";
    for (const auto& g : s.gauges) os << g.name << ",gauge," << fmt_double(g.value) << "\n";
    for (const auto& h : s.histograms) {
        for (std::size_t i = 0; i < h.bounds.size(); ++i)
            os << h.name << ".le_" << fmt_double(h.bounds[i]) << ",histogram," << h.counts[i]
               << "\n";
        os << h.name << ".le_inf,histogram," << h.counts.back() << "\n";
        os << h.name << ".count,histogram," << h.count << "\n";
        os << h.name << ".sum,histogram," << fmt_double(h.sum) << "\n";
    }
}

void write_metrics_csv(const std::filesystem::path& path, const MetricsSnapshot& s)
{
    auto os = open_out(path);
    write_metrics_csv(os, s);
}

}  // namespace xct::telemetry
