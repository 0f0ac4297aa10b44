// Telemetry-core tests: concurrent instrument updates, snapshot
// determinism, merge semantics, span capture into the flight rings with
// rank/lane attribution, stage spans feeding the stage metrics, and the
// Chrome-trace / CSV exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>

#include "core/json.hpp"
#include "core/names.hpp"
#include "pipeline/timeline.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace xct::telemetry {
namespace {

using flight::FlightEvent;

TEST(Counter, ConcurrentAddsAreExact)
{
    Counter& c = registry().counter("test.counter.concurrent");
    constexpr int kThreads = 8;
    constexpr int kAdds = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < kAdds; ++i) c.add(1);
        });
    for (auto& t : threads) t.join();
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Gauge, ConcurrentAddsAreExact)
{
    Gauge& g = registry().gauge("test.gauge.concurrent");
    constexpr int kThreads = 4;
    constexpr int kAdds = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < kAdds; ++i) g.add(0.5);  // exact in binary
        });
    for (auto& t : threads) t.join();
    EXPECT_DOUBLE_EQ(g.value(), 0.5 * kThreads * kAdds);
}

TEST(Histogram, BucketsObservationsByBound)
{
    Histogram& h = registry().histogram("test.hist.buckets", {1.0, 10.0, 100.0});
    h.observe(0.5);    // le_1
    h.observe(1.0);    // le_1 (bound is inclusive)
    h.observe(5.0);    // le_10
    h.observe(50.0);   // le_100
    h.observe(500.0);  // overflow
    EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{2, 1, 1, 1}));
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 556.5);
}

TEST(Histogram, ConcurrentObservationsKeepTotalCount)
{
    Histogram& h = registry().histogram("test.hist.concurrent", {0.25, 0.75});
    constexpr int kThreads = 6;
    constexpr int kObs = 4000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kObs; ++i) h.observe(t % 2 == 0 ? 0.5 : 1.0);
        });
    for (auto& t : threads) t.join();
    EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kObs);
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t b : h.counts()) bucket_total += b;
    EXPECT_EQ(bucket_total, h.count());
}

TEST(Registry, SameNameReturnsSameInstrument)
{
    Counter& a = registry().counter("test.registry.same");
    Counter& b = registry().counter("test.registry.same");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
}

TEST(Registry, HistogramBoundsMismatchThrows)
{
    registry().histogram("test.registry.bounds", {1.0, 2.0});
    EXPECT_NO_THROW(registry().histogram("test.registry.bounds", {1.0, 2.0}));
    EXPECT_THROW(registry().histogram("test.registry.bounds", {1.0, 3.0}), std::invalid_argument);
}

TEST(Registry, SnapshotIsDeterministicAndSorted)
{
    registry().counter("test.snap.zebra").add(1);
    registry().counter("test.snap.alpha").add(2);
    registry().gauge("test.snap.g").set(4.5);
    const MetricsSnapshot s1 = registry().snapshot();
    const MetricsSnapshot s2 = registry().snapshot();
    EXPECT_EQ(s1, s2);  // quiescent registry -> identical snapshots
    EXPECT_TRUE(std::is_sorted(s1.counters.begin(), s1.counters.end(),
                               [](const auto& a, const auto& b) { return a.name < b.name; }));
    EXPECT_TRUE(std::is_sorted(s1.gauges.begin(), s1.gauges.end(),
                               [](const auto& a, const auto& b) { return a.name < b.name; }));
}

TEST(Registry, ResetZeroesButKeepsInstruments)
{
    Counter& c = registry().counter("test.reset.c");
    c.add(9);
    registry().reset();
    EXPECT_EQ(c.value(), 0u);                                // reference stays valid
    EXPECT_EQ(&c, &registry().counter("test.reset.c"));      // registration kept
}

TEST(Merge, SumsMatchingNamesAndInsertsNew)
{
    MetricsSnapshot a;
    a.counters.push_back({"shared", 5});
    a.gauges.push_back({"g", 1.5});
    MetricsSnapshot b;
    b.counters.push_back({"other", 2});
    b.counters.push_back({"shared", 7});
    b.gauges.push_back({"g", 2.0});
    merge(a, b);
    ASSERT_EQ(a.counters.size(), 2u);
    EXPECT_EQ(a.counters[0].name, "other");  // stays sorted
    EXPECT_EQ(a.counters[0].value, 2u);
    EXPECT_EQ(a.counters[1].value, 12u);
    EXPECT_DOUBLE_EQ(a.gauges[0].value, 3.5);
}

TEST(Merge, HistogramBucketsSumAndMismatchThrows)
{
    MetricsSnapshot a;
    a.histograms.push_back({"h", {1.0, 2.0}, {1, 2, 3}, 6, 4.0});
    MetricsSnapshot b;
    b.histograms.push_back({"h", {1.0, 2.0}, {10, 20, 30}, 60, 40.0});
    merge(a, b);
    EXPECT_EQ(a.histograms[0].counts, (std::vector<std::uint64_t>{11, 22, 33}));
    EXPECT_EQ(a.histograms[0].count, 66u);
    EXPECT_DOUBLE_EQ(a.histograms[0].sum, 44.0);

    MetricsSnapshot c;
    c.histograms.push_back({"h", {9.0}, {0, 0}, 0, 0.0});
    EXPECT_THROW(merge(a, c), std::invalid_argument);
}

TEST(Merge, MismatchErrorNamesTheHistogramAndBothBoundSets)
{
    // A fleet aggregation that dies on a mismatch must say which
    // histogram disagreed and what each side's bounds were.
    MetricsSnapshot a;
    a.histograms.push_back({"pipeline.stage.bp.seconds", {1.0, 2.0}, {0, 0, 0}, 0, 0.0});
    MetricsSnapshot c;
    c.histograms.push_back({"pipeline.stage.bp.seconds", {9.0}, {0, 0}, 0, 0.0});
    try {
        merge(a, c);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("pipeline.stage.bp.seconds"), std::string::npos) << msg;
        EXPECT_NE(msg.find("[1, 2]"), std::string::npos) << msg;
        EXPECT_NE(msg.find("[9]"), std::string::npos) << msg;
    }
}

TEST(ExpBounds, GeneratesGeometricSeriesAndValidates)
{
    const auto b = exp_bounds(1e-3, 2.0, 4);
    ASSERT_EQ(b.size(), 4u);
    EXPECT_DOUBLE_EQ(b[0], 1e-3);
    EXPECT_DOUBLE_EQ(b[1], 2e-3);
    EXPECT_DOUBLE_EQ(b[2], 4e-3);
    EXPECT_DOUBLE_EQ(b[3], 8e-3);
    EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
    EXPECT_THROW(exp_bounds(0.0, 2.0, 4), std::invalid_argument);
    EXPECT_THROW(exp_bounds(1.0, 1.0, 4), std::invalid_argument);
    EXPECT_THROW(exp_bounds(1.0, 2.0, 0), std::invalid_argument);
}

TEST(HistogramQuantile, InterpolatesWithinBucketsAndHandlesOverflow)
{
    // 10 observations spread as 4 / 4 / 2 over bounds {1, 2, 4}.
    HistogramSample h{"q", {1.0, 2.0, 4.0}, {4, 4, 2, 0}, 10, 0.0};
    EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.0), 0.25);  // first observation
    EXPECT_GT(histogram_quantile(h, 0.5), 1.0);          // 5th obs: second bucket
    EXPECT_LE(histogram_quantile(h, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(histogram_quantile(h, 1.0), 4.0);   // last bucket's bound
    EXPECT_LE(histogram_quantile(h, 0.25), histogram_quantile(h, 0.75));

    // Observations in the overflow bucket clamp to the last bound.
    HistogramSample over{"q", {1.0}, {0, 3}, 3, 0.0};
    EXPECT_DOUBLE_EQ(histogram_quantile(over, 0.99), 1.0);

    HistogramSample empty{"q", {1.0}, {0, 0}, 0, 0.0};
    EXPECT_DOUBLE_EQ(histogram_quantile(empty, 0.5), 0.0);
}

TEST(FleetObserve, FillsLogBucketedStageHistograms)
{
    fleet_observe("teststage", 0.5);
    fleet_observe("teststage", 0.002);
    const MetricsSnapshot snap = registry().snapshot();
    const auto it = std::find_if(snap.histograms.begin(), snap.histograms.end(),
                                 [](const HistogramSample& h) {
                                     return h.name == "fleet.stage.teststage.seconds";
                                 });
    ASSERT_NE(it, snap.histograms.end());
    EXPECT_EQ(it->count, 2u);
    EXPECT_EQ(it->bounds, exp_bounds(1e-3, 2.0, 24));
}

TEST(ProcessMemory, RecordsFaultsAndPeakRssOnce)
{
    record_process_memory();
    const double faults = registry().gauge(names::kMetricProcessMinorFaults).value();
    const double rss = registry().gauge(names::kMetricProcessPeakRssMib).value();
    EXPECT_GT(faults, 0.0);
    EXPECT_GT(rss, 0.0);
    // A second call reads the faults so far again, never their sum.
    record_process_memory();
    const double again = registry().gauge(names::kMetricProcessMinorFaults).value();
    EXPECT_GE(again, faults);
    EXPECT_LT(again, 2 * faults);
    EXPECT_GE(registry().gauge(names::kMetricProcessPeakRssMib).value(), rss);
}

TEST(Tracer, EnableClearsAndCapturesSpans)
{
    const double t0 = flight::wall_now();
    { ScopedTrace t("sub", "work", /*item=*/7, /*bytes=*/128); }
    const auto events = flight::snapshot(t0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "work");
    EXPECT_STREQ(events[0].cat, "sub");
    EXPECT_EQ(events[0].item, 7);
    EXPECT_EQ(events[0].bytes, 128u);
    EXPECT_GE(events[0].end, events[0].begin);

    // A later window starts empty: the span above began before it.
    EXPECT_TRUE(flight::snapshot(flight::wall_now()).empty());
}

TEST(Tracer, RankAndLaneAttribution)
{
    const double t0 = flight::wall_now();
    // Both threads stay alive until each has recorded, so they hold
    // distinct rings — and therefore distinct lanes.
    std::atomic<int> recorded{0};
    auto worker = [&](index_t rank, const char* name) {
        set_current_rank(RankId{rank});
        { ScopedTrace t("test", name); }
        recorded.fetch_add(1);
        while (recorded.load() < 2) std::this_thread::yield();
    };
    std::thread a(worker, 3, "rank3-span");
    std::thread b(worker, 5, "rank5-span");
    a.join();
    b.join();
    auto events = flight::snapshot(t0);
    ASSERT_EQ(events.size(), 2u);
    std::sort(events.begin(), events.end(),
              [](const FlightEvent& x, const FlightEvent& y) { return x.rank < y.rank; });
    EXPECT_EQ(events[0].rank, RankId{3});
    EXPECT_EQ(events[1].rank, RankId{5});
    EXPECT_NE(events[0].lane, events[1].lane);  // distinct live threads, distinct lanes
}

TEST(Tracer, TimelineForwardsSpansOnOneTimebase)
{
    registry().reset();
    const double t0 = flight::wall_now();
    pipeline::StageClock clock;
    { pipeline::ScopedSpan span(clock, pipeline::Stage::Bp, 2); }  // one ring store
    const auto events = flight::snapshot(t0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "bp");
    EXPECT_STREQ(events[0].cat, "pipeline");
    EXPECT_EQ(events[0].item, 2);
    // The ring span, the clock and (once published, as run_rank does at
    // its end) the stage metrics all hold the same seconds.
    EXPECT_DOUBLE_EQ(events[0].end - events[0].begin, clock.busy(pipeline::Stage::Bp));
    clock.publish();
    EXPECT_DOUBLE_EQ(registry().gauge("pipeline.stage.bp.seconds").value(),
                     clock.busy(pipeline::Stage::Bp));
    EXPECT_EQ(registry().counter("pipeline.stage.bp.spans").value(), 1u);
}

std::size_t count_occurrences(const std::string& hay, const std::string& needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(Export, ChromeTraceIsValidJsonWithOneCompleteEventPerSpan)
{
    const double t0 = flight::wall_now();
    { ScopedTrace t("minimpi", "reduce_sum", -1, 4096); }
    { ScopedTrace t("sim", "h2d", 3, 1024); }
    std::thread remote([] {
        set_current_rank(RankId{1});
        ScopedTrace t("io", "pfs.store");
    });
    remote.join();
    const auto events = flight::snapshot(t0);
    ASSERT_EQ(events.size(), 3u);

    std::ostringstream os;
    write_chrome_trace(os, events, t0);
    const std::string json = os.str();
    EXPECT_EQ(Json::parse(json).at("traceEvents").array.size(), events.size() + 2);
    // One complete event per recorded span.
    EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), events.size());
    // process_name metadata for each rank that produced spans (0 and 1).
    EXPECT_EQ(count_occurrences(json, "\"ph\":\"M\""), 2u);
    EXPECT_NE(json.find("\"name\":\"rank 0\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"rank 1\""), std::string::npos);
    // Byte payloads survive as args.
    EXPECT_NE(json.find("\"bytes\":4096"), std::string::npos);
}

TEST(Export, ChromeTraceClampsPreEpochSpans)
{
    std::vector<FlightEvent> events;
    events.push_back({"test", "early", RankId{0}, 0, -1, 0, 99.5, 100.25});
    std::ostringstream os;
    write_chrome_trace(os, events, 100.0);
    EXPECT_EQ(os.str().find("-"), std::string::npos);  // no negative ts/dur
}

TEST(Export, MetricsCsvListsEveryInstrument)
{
    MetricsSnapshot s;
    s.counters.push_back({"fft.transforms", 42});
    s.gauges.push_back({"pipeline.stage.bp.seconds", 1.25});
    s.histograms.push_back({"lat", {1.0, 2.0}, {3, 4, 5}, 12, 18.0});
    std::ostringstream os;
    write_metrics_csv(os, s);
    const std::string csv = os.str();
    EXPECT_EQ(csv.rfind("name,kind,value\n", 0), 0u);  // header first
    EXPECT_NE(csv.find("fft.transforms,counter,42\n"), std::string::npos);
    EXPECT_NE(csv.find("pipeline.stage.bp.seconds,gauge,1.250000\n"), std::string::npos);
    EXPECT_NE(csv.find("lat.le_1.000000,histogram,3\n"), std::string::npos);
    EXPECT_NE(csv.find("lat.le_inf,histogram,5\n"), std::string::npos);
    EXPECT_NE(csv.find("lat.count,histogram,12\n"), std::string::npos);
    EXPECT_NE(csv.find("lat.sum,histogram,18.000000\n"), std::string::npos);
}

TEST(Export, MetricsJsonIsWellFormed)
{
    MetricsSnapshot s;
    s.counters.push_back({"a.b", 1});
    s.gauges.push_back({"c.d", 2.5});
    s.gauges.push_back({"odd \"name\"\x01", std::nan("")});
    s.histograms.push_back({"h", {0.5}, {1, 0}, 1, 0.25});
    std::ostringstream os;
    write_metrics_json(os, s);
    const Json j = Json::parse(os.str());
    EXPECT_EQ(j.at("gauges").at("c.d").as_number("c.d"), 2.5);
    EXPECT_EQ(j.at("gauges").at("odd \"name\"\x01").type, Json::Type::Null);
    EXPECT_NE(os.str().find("\"a.b\": 1"), std::string::npos);
}

}  // namespace
}  // namespace xct::telemetry
