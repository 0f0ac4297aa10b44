// Flight-recorder tests: ring wraparound, allocation-free warm recording,
// snapshot integrity under concurrent writers, ring reuse across thread
// lifetimes, and the post-mortem dump paths (manual,
// watchdog-tripped via an injected rank stall, and budget/armed gating).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/scratch.hpp"
#include "faults/fault.hpp"
#include "integrity/watchdog.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"

namespace xct::telemetry::flight {
namespace {

double span_begin()
{
    return wall_now() - 1e-6;
}

std::string slurp(const std::filesystem::path& p)
{
    std::ifstream in(p);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::filesystem::path fresh_dir(const char* leaf)
{
    const auto dir = std::filesystem::temp_directory_path() / leaf;
    std::filesystem::remove_all(dir);
    return dir;
}

/// Every test leaves post-mortems disarmed for the suites that follow.
struct Disarmed {
    ~Disarmed() { disarm_postmortem(); }
};

TEST(Flight, RecordedSpansAppearInSnapshot)
{
    static const char* kName = "flight.test.appear";
    const double begin = span_begin();  // read before the end: arguments are unsequenced
    record("test", kName, begin, wall_now(), 7, 128);
    const auto events = snapshot();
    const auto it = std::find_if(events.begin(), events.end(),
                                 [](const FlightEvent& e) { return e.name == kName; });
    ASSERT_NE(it, events.end());
    EXPECT_EQ(it->item, 7);
    EXPECT_EQ(it->bytes, 128u);
    EXPECT_LE(it->begin, it->end);
}

TEST(Flight, RingWrapsKeepingTheMostRecentSpans)
{
    static const char* kName = "flight.test.wrap";
    const std::size_t total = kRingCapacity + 100;
    for (std::size_t i = 0; i < total; ++i)
        record("test", kName, span_begin(), wall_now(), static_cast<index_t>(i));
    const auto events = snapshot();
    std::vector<index_t> items;
    for (const FlightEvent& e : events)
        if (e.name == kName) items.push_back(e.item);
    ASSERT_FALSE(items.empty());
    EXPECT_LE(items.size(), kRingCapacity);
    // The newest span survived; everything overwritten was the oldest.
    EXPECT_EQ(*std::max_element(items.begin(), items.end()),
              static_cast<index_t>(total - 1));
    EXPECT_GE(*std::min_element(items.begin(), items.end()),
              static_cast<index_t>(total - kRingCapacity));
}

TEST(Flight, WarmRecordingAllocatesNothing)
{
    warm();  // ring exists from here on
    record("test", "flight.test.warmup", span_begin(), wall_now());
    const std::uint64_t e0 = scratch::heap_events();
    for (int i = 0; i < 10000; ++i)
        record("test", "flight.test.warm", span_begin(), wall_now(), i, 64);
    EXPECT_EQ(scratch::heap_events() - e0, 0u);
}

TEST(Flight, TotalRecordsIsMonotonic)
{
    const std::uint64_t r0 = total_records();
    for (int i = 0; i < 32; ++i) record("test", "flight.test.count", span_begin(), wall_now());
    EXPECT_GE(total_records(), r0 + 32);
}

TEST(Flight, ExitedThreadsRingIsReusedNotLeaked)
{
    const auto run_thread = [] {
        std::thread([] { record("test", "flight.test.thread", span_begin(), wall_now()); })
            .join();
    };
    run_thread();  // may create one new ring
    const std::size_t rings = ring_count();
    for (int i = 0; i < 8; ++i) run_thread();  // must all reuse the retired ring
    EXPECT_EQ(ring_count(), rings);
}

TEST(Flight, SnapshotIsCleanUnderConcurrentWriters)
{
    // Hammer the ring from writer threads while snapshotting: every
    // decoded span must be internally consistent (no torn reads).
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t)
        writers.emplace_back([&stop, t] {
            std::uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                const double b = 1000.0 * t + static_cast<double>(i);
                record("test", "flight.test.torn", b, b + 0.5, static_cast<index_t>(t));
                ++i;
            }
        });
    for (int pass = 0; pass < 50; ++pass) {
        for (const FlightEvent& e : snapshot()) {
            if (std::string_view(e.name) != "flight.test.torn") continue;
            // begin/end written as a pair: a torn slot would pair a begin
            // from one write with the end of another.
            EXPECT_DOUBLE_EQ(e.end - e.begin, 0.5);
        }
    }
    stop.store(true);
    for (auto& w : writers) w.join();
}

TEST(Flight, DumpWritesChromeTraceRebasedToZero)
{
    static const char* kName = "flight.test.dump-span";
    record("test", kName, span_begin(), wall_now());
    const auto dir = fresh_dir("xct_flight_dump");
    const auto path = dir / "manual.json";
    dump(path);
    const std::string text = slurp(path);
    EXPECT_NE(text.find("traceEvents"), std::string::npos);
    EXPECT_NE(text.find(kName), std::string::npos);
    // Rebased timebase: no raw steady-clock microsecond stamps (which
    // would be ~1e12); the earliest event starts at ts 0.
    EXPECT_NE(text.find("\"ts\":0"), std::string::npos);
}

TEST(Flight, DumpPostmortemRespectsArming)
{
    Disarmed guard;
    disarm_postmortem();
    EXPECT_FALSE(postmortem_armed());
    EXPECT_TRUE(dump_postmortem("test").empty());

    const auto dir = fresh_dir("xct_flight_armed");
    arm_postmortem(dir);
    EXPECT_TRUE(postmortem_armed());
    record("test", "flight.test.armed", span_begin(), wall_now());
    const auto path = dump_postmortem("test");
    ASSERT_FALSE(path.empty());
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_NE(path.string().find("flight_test_"), std::string::npos);
    EXPECT_GE(registry().counter("flight.dumps.test").value(), 1u);
}

TEST(Flight, InjectedRankStallTripsWatchdogIntoPostmortem)
{
    // The e2e acceptance path: a kind=stall fault makes a supervised
    // section overrun its deadline; the watchdog's expiry handler dumps
    // the flight rings as a post-mortem trace.
    Disarmed guard;
    const auto dir = fresh_dir("xct_flight_stall");
    arm_postmortem(dir);
    record("test", "flight.test.before-stall", span_begin(), wall_now(), 3);

    faults::ScopedPlan install(
        faults::FaultPlan::parse("source.load:kind=stall,delay=0.05,after=0,count=1"));
    integrity::Watchdog wd(0.005);
    EXPECT_THROW(wd.supervise("source.load", [] { faults::stall_point("source.load"); }),
                 integrity::DeadlineExceeded);

    std::filesystem::path trace;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        if (entry.path().filename().string().rfind("flight_watchdog_", 0) == 0)
            trace = entry.path();
    ASSERT_FALSE(trace.empty()) << "watchdog expiry did not write a post-mortem trace";
    const std::string text = slurp(trace);
    EXPECT_NE(text.find("traceEvents"), std::string::npos);
    // The recent past — spans recorded before the stall — is in the dump.
    EXPECT_NE(text.find("flight.test.before-stall"), std::string::npos);
}

}  // namespace
}  // namespace xct::telemetry::flight
