#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <stdexcept>

#include "serve/protocol.hpp"

namespace xct::bench {

double now_s()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), epoch_(now_s()) {}

index_t SpanLog::open(std::string name)
{
    if (!enabled_) return -1;
    const double t = now_s();
    const index_t id = add(std::move(name), t, t - 1.0);  // end < begin: still open
    open_.push_back(id);
    return id;
}

void SpanLog::close(index_t id)
{
    if (!enabled_ || id < 0) return;
    const double t = now_s() - epoch_;
    while (!open_.empty()) {
        const index_t top = open_.back();
        open_.pop_back();
        spans_[static_cast<std::size_t>(top)].end = t;
        if (top == id) break;
    }
}

index_t SpanLog::add(std::string name, double begin, double end, index_t parent, index_t lane)
{
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.begin = begin - epoch_;
    s.end = end - epoch_;
    s.parent = parent >= 0 ? parent : (open_.empty() ? -1 : open_.back());
    s.rep = rep_;
    s.lane = lane;
    spans_.push_back(std::move(s));
    return static_cast<index_t>(spans_.size()) - 1;
}

void SpanLog::write_chrome(const std::filesystem::path& path) const
{
    std::ofstream f(path);
    if (!f) throw std::runtime_error("xct_bench: cannot write " + path.string());
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.end < s.begin) continue;
        f << (first ? "" : ",") << "\n{\"name\":" << serve::json_quote(s.name)
          << ",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
          << ",\"ts\":" << serve::json_number(s.begin * 1e6)
          << ",\"dur\":" << serve::json_number((s.end - s.begin) * 1e6)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << ",\"rep\":" << s.rep
          << "}}";
        first = false;
    }
    f << "\n]}\n";
}

std::vector<std::pair<std::string, double>> SpanLog::self_seconds() const
{
    // Children may overlap (concurrent serve jobs), so a parent's covered
    // time is the union of its children's intervals.
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_)
        if (s.parent >= 0 && s.end >= s.begin)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.begin, s.end);
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.end < s.begin) continue;
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (const auto& [b, e] : iv) {
            if (b > hi) {
                if (hi > lo) covered += hi - lo;
                lo = b;
                hi = e;
            } else {
                hi = std::max(hi, e);
            }
        }
        if (hi > lo) covered += hi - lo;
        by_name[s.name] += (s.end - s.begin) - covered;
    }
    std::vector<std::pair<std::string, double>> out(by_name.begin(), by_name.end());
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    return out;
}

}  // namespace xct::bench
