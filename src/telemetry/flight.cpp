#include "telemetry/flight.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>

#include "core/mutex.hpp"
#include "core/names.hpp"
#include "core/scratch.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trace.hpp"

namespace xct::telemetry::flight {

namespace {

// One ring slot.  Every field is individually atomic so a dumper may
// read a slot the owning thread is concurrently overwriting without a
// data race; the `seq` stamp (0 while a write is in flight, else
// 1 + the monotonic write index) lets readers detect and drop slots
// caught mid-overwrite instead of emitting torn spans.
struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<const char*> cat{nullptr};
    std::atomic<const char*> name{nullptr};
    std::atomic<index_t> rank{0};
    std::atomic<index_t> item{-1};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<double> begin{0.0};
    std::atomic<double> end{0.0};
};

// Single-writer ring: only the owning thread stores, anyone may load.
struct Ring {
    std::array<Slot, kRingCapacity> slots;
    std::atomic<std::uint64_t> head{0};  ///< monotonic next-write index
    index_t lane = 0;  ///< assigned once before publication, then read-only
};

struct State {
    mutable Mutex m{"telemetry.flight"};
    std::vector<std::shared_ptr<Ring>> rings XCT_GUARDED_BY(m);
    std::vector<std::size_t> free_rings XCT_GUARDED_BY(m);  ///< retired, reusable
    std::filesystem::path dump_dir XCT_GUARDED_BY(m);
    std::atomic<bool> armed{false};
    std::atomic<std::uint64_t> postmortems{0};
};

State& state()
{
    static State s;
    return s;
}

std::shared_ptr<Ring> acquire_ring()
{
    State& st = state();
    MutexLock lk(st.m);
    if (!st.free_rings.empty()) {
        const std::size_t idx = st.free_rings.back();
        st.free_rings.pop_back();
        return st.rings[idx];
    }
    // Cold path: a genuinely new thread.  Visible to the warm-path
    // zero-allocation assertion through the scratch heap-event counter.
    scratch::note_heap_event();
    auto ring = std::make_shared<Ring>();
    ring->lane = static_cast<index_t>(st.rings.size());
    st.rings.push_back(ring);
    registry().gauge(names::kMetricFlightThreads).set(static_cast<double>(st.rings.size()));
    return ring;
}

// Thread-local ring lease: acquired on the thread's first record(),
// retired to the free list when the thread exits.  The retired ring's
// events stay readable until a new thread claims and overwrites it.
struct LocalRing {
    std::shared_ptr<Ring> ring;
    ~LocalRing()
    {
        if (!ring) return;
        State& st = state();
        MutexLock lk(st.m);
        st.free_rings.push_back(static_cast<std::size_t>(ring->lane));
    }
};

Ring& local_ring()
{
    thread_local LocalRing lease;
    if (!lease.ring) lease.ring = acquire_ring();
    return *lease.ring;
}

std::vector<std::shared_ptr<Ring>> all_rings()
{
    State& st = state();
    MutexLock lk(st.m);
    return st.rings;
}

std::atomic<bool> g_in_fatal_signal{false};

void fatal_signal_handler(int sig)
{
    // Best-effort: dump once, then die with the default disposition so
    // exit codes / core dumps behave as without the handler.
    if (!g_in_fatal_signal.exchange(true)) dump_postmortem(names::kFlightReasonSignal);
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

}  // namespace

double wall_now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

void warm()
{
    local_ring();
}

void record(const char* cat, const char* name, double abs_begin, double abs_end, index_t item,
            std::uint64_t bytes)
{
    Ring& r = local_ring();
    const std::uint64_t h = r.head.load(std::memory_order_relaxed);
    Slot& s = r.slots[h & (kRingCapacity - 1)];
    s.seq.store(0, std::memory_order_relaxed);  // invalidate while writing
    s.cat.store(cat, std::memory_order_relaxed);
    s.name.store(name, std::memory_order_relaxed);
    s.rank.store(current_rank().value(), std::memory_order_relaxed);
    s.item.store(item, std::memory_order_relaxed);
    s.bytes.store(bytes, std::memory_order_relaxed);
    s.begin.store(abs_begin, std::memory_order_relaxed);
    s.end.store(abs_end, std::memory_order_relaxed);
    s.seq.store(h + 1, std::memory_order_release);
    r.head.store(h + 1, std::memory_order_release);
}

std::vector<FlightEvent> snapshot(double since)
{
    std::vector<FlightEvent> out;
    for (const auto& ring : all_rings()) {
        const std::uint64_t head = ring->head.load(std::memory_order_acquire);
        const std::uint64_t start = head > kRingCapacity ? head - kRingCapacity : 0;
        for (std::uint64_t i = start; i < head; ++i) {
            const Slot& s = ring->slots[i & (kRingCapacity - 1)];
            if (s.seq.load(std::memory_order_acquire) != i + 1) continue;
            FlightEvent e;
            e.cat = s.cat.load(std::memory_order_relaxed);
            e.name = s.name.load(std::memory_order_relaxed);
            e.rank = RankId{s.rank.load(std::memory_order_relaxed)};
            e.lane = ring->lane;
            e.item = s.item.load(std::memory_order_relaxed);
            e.bytes = s.bytes.load(std::memory_order_relaxed);
            e.begin = s.begin.load(std::memory_order_relaxed);
            e.end = s.end.load(std::memory_order_relaxed);
            // Re-check: the owner may have started overwriting the slot
            // while we read it — drop the torn copy.
            if (s.seq.load(std::memory_order_acquire) != i + 1) continue;
            if (e.cat == nullptr || e.name == nullptr || e.begin < since) continue;
            out.push_back(e);
        }
    }
    return out;
}

bool wrapped(double since)
{
    for (const auto& ring : all_rings()) {
        const std::uint64_t head = ring->head.load(std::memory_order_acquire);
        if (head <= kRingCapacity) continue;
        // Every overwritten span was recorded before the oldest survivor,
        // so it began before the survivor ended: a survivor that ended
        // before `since` proves the window lost nothing.  A survivor being
        // overwritten right now counts as a loss.
        const std::uint64_t oldest = head - kRingCapacity;
        const Slot& s = ring->slots[oldest & (kRingCapacity - 1)];
        const double end = s.end.load(std::memory_order_relaxed);
        if (s.seq.load(std::memory_order_acquire) != oldest + 1 || end >= since) return true;
    }
    return false;
}

std::size_t ring_count()
{
    State& st = state();
    MutexLock lk(st.m);
    return st.rings.size();
}

std::uint64_t total_records()
{
    std::uint64_t n = 0;
    for (const auto& ring : all_rings()) n += ring->head.load(std::memory_order_relaxed);
    return n;
}

void arm_postmortem(const std::filesystem::path& dir)
{
    std::filesystem::create_directories(dir);
    State& st = state();
    {
        MutexLock lk(st.m);
        st.dump_dir = dir;
    }
    st.armed.store(true, std::memory_order_release);
}

void disarm_postmortem()
{
    state().armed.store(false, std::memory_order_release);
}

bool postmortem_armed()
{
    return state().armed.load(std::memory_order_acquire);
}

std::filesystem::path dump_postmortem(const char* reason)
{
    State& st = state();
    if (!st.armed.load(std::memory_order_acquire)) return {};
    const std::uint64_t n = st.postmortems.fetch_add(1, std::memory_order_relaxed);
    if (n >= kMaxPostmortems) return {};
    auto& reg = registry();
    reg.counter(names::kMetricFlightDumps).add(1);
    reg.counter(std::string(names::kMetricFlightDumpsPrefix) + reason).add(1);
    std::filesystem::path path;
    {
        MutexLock lk(st.m);
        path = st.dump_dir /
               ("flight_" + std::string(reason) + "_" + std::to_string(n) + ".json");
    }
    const double t0 = wall_now();
    dump(path);
    // The dump itself becomes a span, so a later dump shows this one.
    record(names::kCatFlight, names::kSpanFlightDump, t0, wall_now());
    std::fprintf(stderr, "flight: wrote post-mortem trace %s (reason: %s)\n",
                 path.string().c_str(), reason);
    return path;
}

std::size_t dump(const std::filesystem::path& path, double since)
{
    std::vector<FlightEvent> events = snapshot(since);
    if (wrapped(since))
        std::fprintf(stderr, "flight: a ring wrapped inside the window; %s lacks its oldest "
                     "spans\n", path.string().c_str());
    std::sort(events.begin(), events.end(),
              [](const FlightEvent& a, const FlightEvent& b) { return a.begin < b.begin; });
    // Rebase onto the earliest span so the trace opens at t = 0 (the
    // raw timebase is steady-clock seconds since boot).
    const double t0 = events.empty() ? 0.0 : events.front().begin;
    if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
    write_chrome_trace(path, events, t0);
    return events.size();
}

void install_signal_handlers()
{
    for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL})
        std::signal(sig, fatal_signal_handler);
}

}  // namespace xct::telemetry::flight
