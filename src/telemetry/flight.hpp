#pragma once
// Always-on flight recorder: the last N spans of every thread, for free.
//
// The process's one span store (DESIGN.md §3g "Flight recorder"): every
// thread continuously writes its spans into a private fixed-size ring,
// overwriting the oldest, so the *recent past* of all threads is always
// available.  Every reader takes what it needs from the rings:
//   * `--trace` and the run report read the spans of one time window
//     (snapshot/dump with `since` = the run's start);
//   * when the integrity Watchdog trips, a fault is detected, or a fatal
//     signal fires, the rings are dumped whole as a Chrome/Perfetto trace
//     — a post-mortem of what every stage was doing before the failure.
// Exact per-stage sums do not come from here: a ring keeps only its last
// kRingCapacity spans, so pipeline::StageClock sums them as they end.
//
// Cost model (the bench integrity/overhead section asserts < 2%):
//   * recording is lock-free and allocation-free when warm — one ring
//     slot store (relaxed atomics, single writer) per span; the only
//     cold path is first-record-on-a-thread (ring acquisition);
//   * rings are recycled through a free list when threads exit, so a
//     pipeline that spawns stage threads per batch group reuses the same
//     ~5 rings instead of growing without bound, and a dead thread's
//     last spans survive until a new thread claims its ring;
//   * readers (snapshot/dump) never block writers: slot fields are
//     individually atomic, and a slot overwritten mid-read is detected
//     via its sequence stamp and dropped.
//
// Name lifetime: rings store `const char*`, so callers pass string
// literals or names:: constants.

#include <cstdint>
#include <filesystem>
#include <limits>
#include <vector>

#include "core/ids.hpp"
#include "core/types.hpp"

namespace xct::telemetry::flight {

/// Spans retained per thread.  Power of two; at pipeline-span rates
/// (batches x stages) this holds minutes of recent history per thread.
inline constexpr std::size_t kRingCapacity = 4096;

/// Maximum post-mortem dumps per process: a crash loop or a watchdog
/// firing on every batch must not flood the filesystem.
inline constexpr std::uint64_t kMaxPostmortems = 16;

/// One decoded span from a ring (snapshot form).  Times are absolute
/// steady-clock seconds (wall_now()).
struct FlightEvent {
    const char* cat = nullptr;
    const char* name = nullptr;
    RankId rank{};
    index_t lane = 0;  ///< ring id (stable per ring, reused across threads)
    index_t item = -1;
    std::uint64_t bytes = 0;
    double begin = 0.0;
    double end = 0.0;
};

/// Absolute steady-clock seconds — the flight timebase.
double wall_now();

/// Record a completed span into the calling thread's ring.  `cat` and
/// `name` must outlive the process (string literals or names::
/// constants).  Lock-free and allocation-free when warm.
void record(const char* cat, const char* name, double abs_begin, double abs_end,
            index_t item = -1, std::uint64_t bytes = 0);

/// Ensure the calling thread's ring exists (the one cold path of
/// record()).  ScopedTrace calls this at span *begin* so that a
/// thread's first-ever acquisition is ordered before any rendezvous the
/// span body performs — heap-event deltas read after a collective then
/// cannot observe a peer's late first acquisition.
void warm();

/// No lower bound on a span's begin: the whole of every ring.
inline constexpr double kAllTime = -std::numeric_limits<double>::infinity();

/// Decode every ring (live and retired), oldest-first within a ring,
/// keeping the spans that began at or after `since`.  Slots overwritten
/// while being read are dropped, not torn.
std::vector<FlightEvent> snapshot(double since = kAllTime);

/// True when some ring may have overwritten a span that began at or
/// after `since`, i.e. snapshot(since) may lack the window's oldest
/// spans.  Conservative: it never misses a loss.
bool wrapped(double since);

/// Number of rings ever created (live + retired).  Test hook: a warm
/// thread pool must not grow this.
std::size_t ring_count();

/// Total spans ever recorded across all rings (monotonic, unlike
/// snapshot() which is bounded by ring capacity).  Bench hook: the delta
/// across a run times the per-span cost bounds the flight overhead.
std::uint64_t total_records();

/// Arm automatic post-mortem dumps: watchdog expiry, integrity
/// detection and fatal signals will write `flight_<reason>_<n>.json`
/// into `dir` (created if missing).  Armed state is process-wide.
void arm_postmortem(const std::filesystem::path& dir);
void disarm_postmortem();
bool postmortem_armed();

/// If armed, dump all rings as a Perfetto trace named after `reason`
/// (e.g. "watchdog", "integrity", "signal") and bump `flight.dumps` /
/// `flight.dumps.<reason>`.  Returns the path written, or an empty path
/// when disarmed or the kMaxPostmortems budget is spent.  Safe to call
/// from any thread; concurrent recording continues.
std::filesystem::path dump_postmortem(const char* reason);

/// Write snapshot(since) to `path` as Chrome trace-event JSON, rebased
/// so the earliest span is t=0, and return the number of spans written.
/// Warns on stderr when wrapped(since).
std::size_t dump(const std::filesystem::path& path, double since = kAllTime);

/// Install handlers for fatal signals (SIGSEGV, SIGABRT, SIGBUS, SIGFPE,
/// SIGILL) that attempt a post-mortem dump before re-raising with the
/// default disposition.  Best-effort: the dump path is not strictly
/// async-signal-safe, which is acceptable for a crashing process.
void install_signal_handlers();

}  // namespace xct::telemetry::flight
