#include "pipeline/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/names.hpp"

namespace xct::pipeline {

namespace {

/// The stage's registered span name, in Stage order.
constexpr std::array<const char*, kStageCount> kStageNames = {
    names::kStageRestore, names::kStageLoad, names::kStageFilter, names::kStagePrefetch,
    names::kStageBp,      names::kStageMpi,  names::kStageStore};

}  // namespace

StageClock::StageClock(double epoch) : epoch_(epoch), last_end_(epoch) {}

void StageClock::record(Stage stage, index_t item, double abs_begin, double abs_end)
{
    telemetry::flight::record(names::kCatPipeline, kStageNames[index(stage)], abs_begin, abs_end,
                              item);
    busy_[index(stage)].add(abs_end - abs_begin);
    spans_[index(stage)].add(1);
    double last = last_end_.load(std::memory_order_relaxed);
    while (abs_end > last &&
           !last_end_.compare_exchange_weak(last, abs_end, std::memory_order_relaxed)) {
    }
}

double StageClock::makespan() const
{
    return last_end_.load(std::memory_order_relaxed) - epoch_;
}

void StageClock::publish() const
{
    auto& reg = telemetry::registry();
    for (std::size_t i = 0; i < kStageCount; ++i) {
        if (spans_[i].value() == 0) continue;
        const std::string prefix = names::kMetricPipelineStagePrefix + std::string(kStageNames[i]);
        reg.gauge(prefix + ".seconds").add(busy_[i].value());
        reg.counter(prefix + ".spans").add(spans_[i].value());
    }
}

std::string render(const std::vector<StageSpan>& spans, index_t width)
{
    if (spans.empty()) return "(empty timeline)\n";
    double span_end = 0.0;
    for (const auto& s : spans) span_end = std::max(span_end, s.end);
    if (span_end <= 0.0) span_end = 1e-9;

    // Stable stage order: first appearance.
    std::vector<std::string> order;
    for (const auto& s : spans)
        if (std::find(order.begin(), order.end(), s.stage) == order.end()) order.push_back(s.stage);

    std::size_t label_w = 0;
    for (const auto& n : order) label_w = std::max(label_w, n.size());

    std::ostringstream out;
    for (const auto& name : order) {
        std::string row(static_cast<std::size_t>(width), '.');
        for (const auto& s : spans) {
            if (s.stage != name) continue;
            // Half-open pixel mapping: a span covers the columns its
            // interval intersects, never bleeding into the column that
            // starts exactly at its end; a degenerate/sub-column span
            // still marks the column it falls in (Fig. 10 regression:
            // very short spans must not vanish from the chart).
            auto clamp_col = [&](double c) {
                return std::clamp<index_t>(static_cast<index_t>(c), 0, width - 1);
            };
            const index_t c0 = clamp_col(std::floor(s.begin / span_end * static_cast<double>(width)));
            index_t c1 = clamp_col(std::ceil(s.end / span_end * static_cast<double>(width)) - 1.0);
            if (c1 < c0) c1 = c0;
            for (index_t c = c0; c <= c1; ++c) row[static_cast<std::size_t>(c)] = '#';
        }
        out << name << std::string(label_w - name.size(), ' ') << " |" << row << "|\n";
    }
    out << std::string(label_w, ' ') << " 0" << std::string(static_cast<std::size_t>(width) - 1, ' ')
        << span_end << "s\n";
    return out.str();
}

}  // namespace xct::pipeline
