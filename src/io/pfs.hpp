#pragma once
// Bandwidth-accounted storage: stands in for the paper's node-local NVMe
// (projection loading) and Lustre PFS (volume storing).
//
// Real files are written under a root directory; alongside each transfer
// the modelled time at the configured bandwidth is accumulated, which is
// what the performance model (Sec. 5: BW_load, BW_store) and the
// weak-scaling store plateau (Fig. 14, ~9 s for a 4096^3 volume at
// 28.5 GB/s) consume.
//
// Thread-safety: statistics are plain atomics, so concurrent ranks may
// load/store through one Pfs without external locking (each operation
// opens its own stream; distinct paths never alias).  load_stats() /
// store_stats() return snapshots.
//
// Resilience: every load/store consults the fault-injection plan (sites
// "pfs.load" / "pfs.store") and, when a RetryPolicy is attached via
// set_retry(), transient failures are retried with bounded backoff — the
// recovery behaviour a real PFS client (striped Lustre, object store)
// needs at scale.

#include <atomic>
#include <filesystem>
#include <optional>

#include "core/volume.hpp"
#include "faults/retry.hpp"
#include "io/raw_io.hpp"

namespace xct::io {

/// Snapshot of accumulated I/O statistics of one direction.
struct IoStats {
    std::uint64_t bytes = 0;
    std::uint64_t operations = 0;
    double seconds = 0.0;  ///< modelled time at the configured bandwidth
};

class Pfs {
public:
    /// `root` is created if missing.  Bandwidths in GB/s (the paper's
    /// measured values: ~28.5 GB/s aggregate store, NVMe-class load).
    Pfs(std::filesystem::path root, double load_gbps, double store_gbps);

    const std::filesystem::path& root() const { return root_; }

    /// Retry transient load/store failures under `policy` (nullopt — the
    /// default — fails loudly on the first fault).
    void set_retry(std::optional<faults::RetryPolicy> policy) { retry_ = std::move(policy); }

    void store_volume(const std::string& rel, const Volume& v);
    Volume load_volume(const std::string& rel);
    void store_stack(const std::string& rel, const ProjectionStack& p);

    /// Partial load: only the requested views x detector-row band; only
    /// those bytes hit the (accounted) link — the O(Nu) granularity.
    ProjectionStack load_stack_rows(const std::string& rel, Range views, Range band);

    /// Stored stack metadata (no payload traffic).
    StackInfo stack_info(const std::string& rel) const;

    bool exists(const std::string& rel) const;

    IoStats load_stats() const { return load_.snapshot(); }
    IoStats store_stats() const { return store_.snapshot(); }
    void reset_stats();

private:
    /// Internally atomic accumulator behind the IoStats snapshots.
    struct AtomicIoStats {
        std::atomic<std::uint64_t> bytes{0};
        std::atomic<std::uint64_t> operations{0};
        std::atomic<double> seconds{0.0};

        void add(std::uint64_t b, double s)
        {
            bytes.fetch_add(b, std::memory_order_relaxed);
            operations.fetch_add(1, std::memory_order_relaxed);
            double cur = seconds.load(std::memory_order_relaxed);
            while (!seconds.compare_exchange_weak(cur, cur + s, std::memory_order_relaxed)) {
            }
        }
        IoStats snapshot() const
        {
            return IoStats{bytes.load(std::memory_order_relaxed),
                           operations.load(std::memory_order_relaxed),
                           seconds.load(std::memory_order_relaxed)};
        }
        void reset()
        {
            bytes.store(0, std::memory_order_relaxed);
            operations.store(0, std::memory_order_relaxed);
            seconds.store(0.0, std::memory_order_relaxed);
        }
    };

    std::filesystem::path resolve(const std::string& rel) const;
    void account_load(std::uint64_t bytes);
    void account_store(std::uint64_t bytes);
    template <typename F>
    auto guarded(const char* site, F&& op) -> decltype(op());

    std::filesystem::path root_;
    double load_gbps_;
    double store_gbps_;
    AtomicIoStats load_{};
    AtomicIoStats store_{};
    std::optional<faults::RetryPolicy> retry_;
};

}  // namespace xct::io
