// Pipeline plumbing tests: bounded queues, the per-rank stage clock
// (exact sums however far its flight ring wraps) and the Fig. 10 chart.
#include <gtest/gtest.h>

#include <sstream>
#include <string_view>
#include <thread>

#include "core/scratch.hpp"
#include "pipeline/queue.hpp"
#include "pipeline/timeline.hpp"

namespace xct::pipeline {
namespace {

TEST(BoundedQueue, FifoOrder)
{
    BoundedQueue<int> q(4);
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_EQ(q.pop().value(), 3);
}

TEST(BoundedQueue, CloseDrainsThenSignalsEnd)
{
    BoundedQueue<int> q(4);
    q.push(7);
    q.close();
    EXPECT_EQ(q.pop().value(), 7);
    EXPECT_FALSE(q.pop().has_value());
    EXPECT_FALSE(q.pop().has_value());  // stays closed
}

TEST(BoundedQueue, PushAfterCloseThrows)
{
    BoundedQueue<int> q(2);
    q.close();
    EXPECT_THROW(q.push(1), std::invalid_argument);
}

TEST(BoundedQueue, BlocksProducerWhenFull)
{
    BoundedQueue<int> q(1);
    q.push(1);
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        q.push(2);
        pushed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());  // producer blocked by capacity
    EXPECT_EQ(q.pop().value(), 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, ProducerConsumerStress)
{
    BoundedQueue<int> q(3);
    constexpr int kN = 500;
    long long sum = 0;
    std::thread consumer([&] {
        while (auto v = q.pop()) sum += *v;
    });
    for (int i = 1; i <= kN; ++i) q.push(i);
    q.close();
    consumer.join();
    EXPECT_EQ(sum, static_cast<long long>(kN) * (kN + 1) / 2);
}

TEST(BoundedQueue, PushAfterCloseThrowsTypedQueueClosed)
{
    BoundedQueue<int> q(2);
    q.close();
    EXPECT_THROW(q.push(1), QueueClosed);
}

TEST(BoundedQueue, TryPushReturnsFalseAfterClose)
{
    BoundedQueue<int> q(2);
    EXPECT_TRUE(q.try_push(1));
    q.close();
    EXPECT_FALSE(q.try_push(2));
    EXPECT_EQ(q.pop().value(), 1);  // the rejected item was not enqueued
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseIsIdempotent)
{
    BoundedQueue<int> q(2);
    q.push(5);
    q.close();
    EXPECT_TRUE(q.closed());
    q.close();  // second close: no effect, no spurious wakeup storm
    q.close();
    EXPECT_EQ(q.pop().value(), 5);
    EXPECT_FALSE(q.pop().has_value());
}

// The daemon shutdown case (ISSUE 10 satellite): N consumers parked on an
// empty queue and N producers parked on a full one must ALL wake from one
// close() — consumers with nullopt, producers with QueueClosed (or false
// from try_push) — with no thread left blocked and no item lost.
TEST(BoundedQueue, CloseWakesAllParkedConsumers)
{
    constexpr int kThreads = 8;
    BoundedQueue<int> q(2);
    std::atomic<int> woke{0};
    std::vector<std::thread> consumers;
    for (int t = 0; t < kThreads; ++t)
        consumers.emplace_back([&] {
            EXPECT_FALSE(q.pop().has_value());
            woke.fetch_add(1);
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let them park
    EXPECT_EQ(woke.load(), 0);
    q.close();
    for (auto& t : consumers) t.join();
    EXPECT_EQ(woke.load(), kThreads);
}

TEST(BoundedQueue, CloseWakesAllParkedProducers)
{
    constexpr int kThreads = 8;
    BoundedQueue<int> q(1);
    q.push(0);  // full: every producer below parks on cv_space_
    std::atomic<int> threw{0};
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t)
        producers.emplace_back([&, t] {
            try {
                q.push(t + 1);
            } catch (const QueueClosed&) {
                threw.fetch_add(1);
            }
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(threw.load(), 0);
    q.close();
    for (auto& t : producers) t.join();
    EXPECT_EQ(threw.load(), kThreads);  // all woke, none enqueued
    EXPECT_EQ(q.pop().value(), 0);      // pre-close item still drains
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseMidStreamStressBothSides)
{
    // Producers and consumers racing a mid-stream close from a third
    // thread: every pushed item is either popped or provably rejected,
    // and every thread terminates.
    constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 200;
    BoundedQueue<int> q(3);
    std::atomic<long long> pushed_sum{0}, popped_sum{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p)
        threads.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                const int v = p * kPerProducer + i + 1;
                if (!q.try_push(v)) return;  // closed under us: stop cleanly
                pushed_sum.fetch_add(v);
            }
        });
    for (int c = 0; c < kConsumers; ++c)
        threads.emplace_back([&] {
            while (auto v = q.pop()) popped_sum.fetch_add(*v);
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.close();
    for (auto& t : threads) t.join();
    // try_push serialises the "counted" decision with close(): an item is
    // in pushed_sum iff it was enqueued, and close() lets consumers drain
    // the backlog, so the sums must match exactly.
    EXPECT_EQ(popped_sum.load(), pushed_sum.load());
}

TEST(BoundedQueue, MoveOnlyItems)
{
    BoundedQueue<std::unique_ptr<int>> q(2);
    q.push(std::make_unique<int>(42));
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(**v, 42);
}

TEST(Timeline, RecordsAndAggregates)
{
    StageClock clock(0.0);  // spans below are in seconds since epoch 0
    clock.record(Stage::Load, 0, 0.0, 1.0);
    clock.record(Stage::Load, 1, 2.0, 2.5);
    clock.record(Stage::Bp, 0, 1.0, 3.0);
    EXPECT_DOUBLE_EQ(clock.busy(Stage::Load), 1.5);
    EXPECT_DOUBLE_EQ(clock.busy(Stage::Bp), 2.0);
    EXPECT_DOUBLE_EQ(clock.busy(Stage::Store), 0.0);
    EXPECT_EQ(clock.spans(Stage::Load), 2u);
    EXPECT_EQ(clock.spans(Stage::Store), 0u);
    EXPECT_DOUBLE_EQ(clock.makespan(), 3.0);
}

TEST(Timeline, RenderShowsEveryStageRow)
{
    const std::string chart = render({{"load", 0.0, 0.5}, {"store", 0.5, 1.0}}, 40);
    EXPECT_NE(chart.find("load"), std::string::npos);
    EXPECT_NE(chart.find("store"), std::string::npos);
    EXPECT_NE(chart.find('#'), std::string::npos);
}

/// The busy row between the two '|' bars for a named stage, or "" when
/// the stage row is missing.
std::string render_row(const std::string& chart, const std::string& stage)
{
    std::istringstream in(chart);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(stage, 0) != 0) continue;
        const auto l = line.find('|');
        const auto r = line.rfind('|');
        if (l == std::string::npos || r <= l) return "";
        return line.substr(l + 1, r - l - 1);
    }
    return "";
}

TEST(Timeline, RenderNeverDropsShortSpans)
{
    // Quantisation regression: spans far narrower than one column — or
    // fully degenerate — must still mark at least one '#'.
    const std::string chart = render({{"bp", 0.0, 10.0},
                                      {"store", 5.0, 5.0000001},  // ~1/4000000 of a column
                                      {"load", 10.0, 10.0}},      // zero-length at the right edge
                                     40);
    for (const char* stage : {"bp", "store", "load"}) {
        const std::string row = render_row(chart, stage);
        ASSERT_EQ(row.size(), 40u) << stage;
        EXPECT_NE(row.find('#'), std::string::npos) << stage;
    }
}

TEST(Timeline, RenderDoesNotBleedPastSpanEnd)
{
    // Half-open mapping: back-to-back spans split the chart exactly, the
    // first one not spilling into the column where the second begins.
    const std::string chart = render({{"a", 0.0, 0.5}, {"b", 0.5, 1.0}}, 40);
    EXPECT_EQ(render_row(chart, "a"), std::string(20, '#') + std::string(20, '.'));
    EXPECT_EQ(render_row(chart, "b"), std::string(20, '.') + std::string(20, '#'));
}

TEST(Timeline, EmptyRenders)
{
    EXPECT_EQ(render({}), "(empty timeline)\n");
    EXPECT_DOUBLE_EQ(StageClock().makespan(), 0.0);
}

TEST(ScopedSpan, RecordsEnclosedInterval)
{
    StageClock clock;
    const double since = telemetry::flight::wall_now();
    {
        ScopedSpan s(clock, Stage::Bp, 3);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(clock.spans(Stage::Bp), 1u);
    EXPECT_GE(clock.busy(Stage::Bp), 0.004);
    // The same span, written once to the flight ring.
    const auto spans = telemetry::flight::snapshot(since);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_STREQ(spans[0].cat, "pipeline");
    EXPECT_STREQ(spans[0].name, "bp");
    EXPECT_EQ(spans[0].item, 3);
    EXPECT_DOUBLE_EQ(spans[0].end - spans[0].begin, clock.busy(Stage::Bp));
}

TEST(ScopedSpan, WarmSpanAllocatesNothing)
{
    StageClock clock;
    { ScopedSpan warmup(clock, Stage::Filter, 0); }  // the thread's ring exists from here on
    const std::uint64_t e0 = scratch::heap_events();
    for (index_t i = 0; i < 1000; ++i) ScopedSpan s(clock, Stage::Filter, i);
    EXPECT_EQ(scratch::heap_events() - e0, 0u);
    EXPECT_EQ(clock.spans(Stage::Filter), 1001u);
}

TEST(Timeline, ThreadSafeRecording)
{
    StageClock clock(0.0);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            const Stage stage = t % 2 == 0 ? Stage::Load : Stage::Bp;
            for (int i = 0; i < 100; ++i)
                clock.record(stage, i, static_cast<double>(i), static_cast<double>(i) + 0.5);
        });
    for (auto& t : threads) t.join();
    // Two threads per stage: the lock-free sums lose no update.
    EXPECT_EQ(clock.spans(Stage::Load) + clock.spans(Stage::Bp), 400u);
    EXPECT_DOUBLE_EQ(clock.busy(Stage::Load), 100.0);
    EXPECT_DOUBLE_EQ(clock.busy(Stage::Bp), 100.0);
    EXPECT_DOUBLE_EQ(clock.makespan(), 99.5);
}

TEST(StageClock, StaysExactWhenTheRingWraps)
{
    using telemetry::flight::kRingCapacity;
    StageClock clock;
    const double since = telemetry::flight::wall_now();
    const std::size_t total = kRingCapacity + 100;
    double seconds = 0.0;
    for (std::size_t i = 0; i < total; ++i) {
        const double begin = telemetry::flight::wall_now();
        const double end = telemetry::flight::wall_now();
        clock.record(Stage::Store, static_cast<index_t>(i), begin, end);
        seconds += end - begin;  // the clock's additions, in the clock's order
    }
    EXPECT_EQ(clock.spans(Stage::Store), total);
    EXPECT_EQ(clock.busy(Stage::Store), seconds);
    // The ring kept only its newest spans, and the window says so.
    std::size_t kept = 0;
    for (const auto& e : telemetry::flight::snapshot(since))
        if (std::string_view(e.name) == "store") ++kept;
    EXPECT_LE(kept, kRingCapacity);
    EXPECT_TRUE(telemetry::flight::wrapped(since));
}

TEST(StageClock, AWindowThatFitsReportsNoWrap)
{
    StageClock clock;
    const double since = telemetry::flight::wall_now();
    for (index_t i = 0; i < 100; ++i) ScopedSpan s(clock, Stage::Load, i);
    EXPECT_EQ(telemetry::flight::snapshot(since).size(), 100u);
    EXPECT_FALSE(telemetry::flight::wrapped(since));
}

}  // namespace
}  // namespace xct::pipeline
