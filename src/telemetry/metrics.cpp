#include "telemetry/metrics.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/names.hpp"

namespace xct::telemetry {

namespace {

std::string format_bounds(const std::vector<double>& bounds)
{
    std::string out = "[";
    char buf[32];
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%g", bounds[i]);
        if (i) out += ", ";
        out += buf;
    }
    out += "]";
    return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds))
{
    require(std::is_sorted(bounds_.begin(), bounds_.end()),
            "Histogram: bucket bounds must be ascending");
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v)
{
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
    }
}

std::vector<std::uint64_t> Histogram::counts() const
{
    std::vector<std::uint64_t> out(bounds_.size() + 1);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

void Histogram::reset()
{
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

void merge(MetricsSnapshot& into, const MetricsSnapshot& other)
{
    auto find_or_insert = [](auto& vec, const std::string& name) {
        auto it = std::lower_bound(vec.begin(), vec.end(), name,
                                   [](const auto& s, const std::string& n) { return s.name < n; });
        if (it == vec.end() || it->name != name) {
            // NB: insert(it, {}) would pick the initializer_list overload
            // and insert nothing — spell out the value type.
            typename std::remove_reference_t<decltype(vec)>::value_type sample{};
            sample.name = name;
            it = vec.insert(it, std::move(sample));
        }
        return it;
    };
    for (const auto& c : other.counters) find_or_insert(into.counters, c.name)->value += c.value;
    for (const auto& g : other.gauges) find_or_insert(into.gauges, g.name)->value += g.value;
    for (const auto& h : other.histograms) {
        auto it = find_or_insert(into.histograms, h.name);
        if (it->counts.empty()) {
            it->bounds = h.bounds;
            it->counts.assign(h.counts.size(), 0);
        }
        require(it->bounds == h.bounds, "merge: histogram bounds mismatch for '" + h.name +
                                            "': into has " + format_bounds(it->bounds) +
                                            ", other has " + format_bounds(h.bounds));
        for (std::size_t i = 0; i < h.counts.size(); ++i) it->counts[i] += h.counts[i];
        it->count += h.count;
        it->sum += h.sum;
    }
}

std::vector<double> exp_bounds(double start, double factor, int count)
{
    require(start > 0.0 && factor > 1.0 && count >= 1,
            "exp_bounds: requires start > 0, factor > 1, count >= 1");
    std::vector<double> bounds(static_cast<std::size_t>(count));
    double b = start;
    for (auto& bound : bounds) {
        bound = b;
        b *= factor;
    }
    return bounds;
}

double histogram_quantile(const HistogramSample& h, double q)
{
    require(q >= 0.0 && q <= 1.0, "histogram_quantile: q must be in [0, 1]");
    if (h.count == 0 || h.counts.empty()) return 0.0;
    // The q-th observation by rank (1-based, clamped into range).
    const double target = std::max(1.0, q * static_cast<double>(h.count));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
        const std::uint64_t in_bucket = h.counts[i];
        if (in_bucket == 0) continue;
        if (static_cast<double>(cum + in_bucket) >= target) {
            // Overflow bucket has no upper bound — report the last finite one.
            if (i >= h.bounds.size()) return h.bounds.empty() ? 0.0 : h.bounds.back();
            const double hi = h.bounds[i];
            const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
            const double frac = (target - static_cast<double>(cum)) /
                                static_cast<double>(in_bucket);
            return lo + (hi - lo) * std::min(1.0, frac);
        }
        cum += in_bucket;
    }
    return h.bounds.empty() ? 0.0 : h.bounds.back();
}

void fleet_observe(const std::string& stage, double seconds)
{
    registry()
        .histogram(names::kMetricFleetStagePrefix + stage + ".seconds",
                   exp_bounds(1e-3, 2.0, 24))
        .observe(seconds);
}

Counter& Registry::counter(const std::string& name)
{
    MutexLock lk(m_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
}

Gauge& Registry::gauge(const std::string& name)
{
    MutexLock lk(m_);
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram& Registry::histogram(const std::string& name, std::vector<double> bounds)
{
    MutexLock lk(m_);
    auto& slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>(std::move(bounds));
    else
        require(slot->bounds() == bounds,
                "Registry::histogram: re-registration with different bounds for '" + name +
                    "': registered " + format_bounds(slot->bounds()) + ", requested " +
                    format_bounds(bounds));
    return *slot;
}

MetricsSnapshot Registry::snapshot() const
{
    MutexLock lk(m_);
    MetricsSnapshot s;
    s.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) s.counters.push_back({name, c->value()});
    s.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) s.gauges.push_back({name, g->value()});
    s.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_)
        s.histograms.push_back({name, h->bounds(), h->counts(), h->count(), h->sum()});
    return s;
}

void Registry::reset()
{
    MutexLock lk(m_);
    for (auto& [name, c] : counters_) c->reset();
    for (auto& [name, g] : gauges_) g->reset();
    for (auto& [name, h] : histograms_) h->reset();
}

Registry& registry()
{
    static Registry r;
    return r;
}

void record_process_memory()
{
    rusage ru{};
    if (::getrusage(RUSAGE_SELF, &ru) == 0)
        registry().gauge(names::kMetricProcessMinorFaults).set(static_cast<double>(ru.ru_minflt));
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0) {
            const double kib = std::strtod(line.c_str() + 6, nullptr);
            registry().gauge(names::kMetricProcessPeakRssMib).set(kib / 1024.0);
            break;
        }
}

}  // namespace xct::telemetry
