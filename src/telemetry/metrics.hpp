#pragma once
// Process-wide metrics registry: named counters, gauges and fixed-bucket
// histograms feeding the flat CSV/JSON metrics dump (--metrics of the
// tools) and the bench summaries.
//
// Design goals (DESIGN.md "Observability"):
//   * lock-cheap updates — instruments are looked up once (the registry
//     mutex is taken only at registration) and then updated with relaxed
//     atomics, so hot paths like fft::transform can count unconditionally;
//   * stable references — instruments are never deallocated while the
//     registry lives, so cached `Counter&` references stay valid;
//   * deterministic snapshots — snapshot() returns every instrument
//     sorted by name, so two snapshots of a quiescent registry are equal.
//
// Naming scheme: dot-separated `<subsystem>.<object>.<unit>` — e.g.
// `minimpi.reduce_sum.root_bytes`, `sim.h2d.bytes`,
// `pipeline.stage.bp.seconds` (see README.md "Observability").

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/mutex.hpp"
#include "core/types.hpp"

namespace xct::telemetry {

/// Monotonically increasing integer metric.
class Counter {
public:
    void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> v_{0};
};

/// Last-value / accumulating double metric (stage seconds, ratios).
class Gauge {
public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    void add(double d)
    {
        double cur = v_.load(std::memory_order_relaxed);
        while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
        }
    }
    double value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0.0, std::memory_order_relaxed); }

private:
    std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: counts of observations <= each bound plus an
/// overflow bucket, with total count and sum.  Bounds are set at
/// registration and immutable afterwards.
class Histogram {
public:
    explicit Histogram(std::vector<double> bounds);

    void observe(double v);

    const std::vector<double>& bounds() const { return bounds_; }
    /// Per-bucket counts; size bounds().size() + 1 (last = overflow).
    std::vector<std::uint64_t> counts() const;
    std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const { return sum_.load(std::memory_order_relaxed); }
    void reset();

private:
    std::vector<double> bounds_;  ///< ascending upper bounds
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/// One instrument's state at snapshot time.
struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
    bool operator==(const CounterSample&) const = default;
};
struct GaugeSample {
    std::string name;
    double value = 0.0;
    bool operator==(const GaugeSample&) const = default;
};
struct HistogramSample {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries
    std::uint64_t count = 0;
    double sum = 0.0;
    bool operator==(const HistogramSample&) const = default;
};

/// Deterministic point-in-time view of a registry (each vector sorted by
/// instrument name).
struct MetricsSnapshot {
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;
    bool operator==(const MetricsSnapshot&) const = default;
};

/// Merge `other` into `into`: counters/gauges/histogram buckets with the
/// same name are summed, unknown names are inserted (used to aggregate
/// per-rank snapshots of a distributed run).  Histograms with mismatched
/// bounds throw std::invalid_argument naming the offending histogram and
/// listing both bound vectors.
void merge(MetricsSnapshot& into, const MetricsSnapshot& other);

/// Log-bucketed histogram bounds: `count` ascending upper bounds starting
/// at `start`, each `factor` times the previous — the standard shape for
/// latency/seconds histograms whose values span orders of magnitude.
/// Example: exp_bounds(1e-4, 2.0, 20) covers 100 us .. ~52 s.
/// Requires start > 0, factor > 1 and count >= 1.
std::vector<double> exp_bounds(double start, double factor, int count);

/// Quantile estimate (q in [0, 1]) from a histogram sample's cumulative
/// bucket counts: returns the upper bound of the bucket containing the
/// q-th observation (bounds.back() for the overflow bucket), linearly
/// interpolated within the bucket.  Returns 0 for an empty histogram.
double histogram_quantile(const HistogramSample& h, double q);

/// Fleet aggregation sink: observe one rank's busy seconds for `stage`
/// into the log-bucketed `fleet.stage.<stage>.seconds` histogram of the
/// process registry (exp_bounds(1e-3, 2.0, 24): 1 ms .. ~4.6 h).  The
/// distributed layer feeds this on rank 0 after its final minimpi
/// gather; report.cpp reads the percentiles back out.
void fleet_observe(const std::string& stage, double seconds);

/// Name-addressed instrument store.  registration is mutex-protected;
/// returned references stay valid for the registry's lifetime.
class Registry {
public:
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    /// Registers the histogram on first call; later calls with different
    /// bounds throw std::invalid_argument.
    Histogram& histogram(const std::string& name, std::vector<double> bounds);

    MetricsSnapshot snapshot() const;

    /// Zero every instrument (registrations are kept, references stay
    /// valid) — used by tests and the benches between sweeps.
    void reset();

private:
    mutable Mutex m_{"telemetry.metrics"};
    std::map<std::string, std::unique_ptr<Counter>> counters_ XCT_GUARDED_BY(m_);
    std::map<std::string, std::unique_ptr<Gauge>> gauges_ XCT_GUARDED_BY(m_);
    std::map<std::string, std::unique_ptr<Histogram>> histograms_ XCT_GUARDED_BY(m_);
};

/// The process-wide registry every subsystem feeds.
Registry& registry();

/// Record this process's own memory use into two registry() gauges: its
/// minor page faults so far (`process.minor_faults`, getrusage's ru_minflt;
/// an operating-system statistic that differs between two runs, so not a
/// counter) and its resident high-water mark (`process.peak_rss_mib`, VmHWM
/// of /proc/self/status — ru_maxrss would carry the spawner's peak across
/// exec).  Idempotent; call it just before a snapshot is written.
void record_process_memory();

}  // namespace xct::telemetry
