// The process-wide worker pool (core/parallel.hpp): coverage, concurrent
// and nested callers, exceptions, the width cap, idle cost and fork.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "scoped_threads.hpp"

namespace xct {
namespace {

using namespace std::chrono_literals;

/// Runs of parallel_for(n, grain) counted per index, with the largest
/// slot any participant reported.
struct Coverage {
    std::vector<std::atomic<int>> runs;
    std::atomic<std::size_t> max_slot{0};

    explicit Coverage(index_t n) : runs(static_cast<std::size_t>(n)) {}

    void run(index_t n, index_t grain)
    {
        parallel::parallel_for(n, grain, [&](index_t i, std::size_t slot) {
            runs[static_cast<std::size_t>(i)].fetch_add(1);
            std::size_t seen = max_slot.load();
            while (seen < slot && !max_slot.compare_exchange_weak(seen, slot)) {}
        });
    }
};

double process_cpu_seconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    const index_t grain = 16;
    for (const index_t n : {index_t{0}, index_t{1}, grain - 1, grain, grain + 1, index_t{100000}}) {
        Coverage c(n);
        c.run(n, grain);
        for (index_t i = 0; i < n; ++i)
            ASSERT_EQ(c.runs[static_cast<std::size_t>(i)].load(), 1) << "n " << n << ", i " << i;
        EXPECT_LT(c.max_slot.load(), parallel::width()) << "n " << n;
    }
}

TEST(ParallelFor, EightConcurrentCallersAllComplete)
{
    constexpr index_t n = 100000;
    std::vector<std::vector<index_t>> out(8, std::vector<index_t>(n, -1));
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < out.size(); ++c)
        callers.emplace_back([&out, c] {
            parallel::parallel_for(n, 97, [&](index_t i, std::size_t) {
                out[c][static_cast<std::size_t>(i)] = i * static_cast<index_t>(c + 1);
            });
        });
    for (std::thread& t : callers) t.join();
    for (std::size_t c = 0; c < out.size(); ++c)
        for (index_t i = 0; i < n; ++i)
            ASSERT_EQ(out[c][static_cast<std::size_t>(i)], i * static_cast<index_t>(c + 1))
                << "caller " << c;
}

TEST(ParallelFor, ANestedCallCompletes)
{
    constexpr index_t outer = 12, inner = 5000;
    Coverage c(outer * inner);
    parallel::parallel_for(outer, 1, [&](index_t o, std::size_t) {
        parallel::parallel_for(inner, 64, [&](index_t i, std::size_t) {
            c.runs[static_cast<std::size_t>(o * inner + i)].fetch_add(1);
        });
    });
    for (const std::atomic<int>& r : c.runs) ASSERT_EQ(r.load(), 1);
}

TEST(ParallelFor, TheFirstExceptionIsRethrownOnceAndNoChunkStartsAfterIt)
{
    const std::size_t width = parallel::width();
    std::atomic<bool> thrown{false};
    std::atomic<std::size_t> started{0};
    int caught = 0;
    try {
        parallel::parallel_for(100000, 1, [&](index_t i, std::size_t) {
            started.fetch_add(1);
            if (i == 0) {
                thrown.store(true);
                throw std::runtime_error("chunk 0");
            }
            // Hold every other chunk until the throw, then long enough for
            // the pool to record it, so no participant can take a second.
            while (!thrown.load()) std::this_thread::yield();
            std::this_thread::sleep_for(100ms);
            throw std::logic_error("a later chunk");
        });
    } catch (const std::runtime_error& e) {
        ++caught;
        EXPECT_STREQ(e.what(), "chunk 0");
    }
    EXPECT_EQ(caught, 1);
    // Chunk 0 is always the first claimed; after it, each other
    // participant started at most the one chunk it was holding.
    const std::size_t after = started.load();
    EXPECT_LE(after, width);
    std::this_thread::sleep_for(150ms);
    EXPECT_EQ(started.load(), after) << "a chunk ran after parallel_for returned";
}

TEST(ParallelFor, NoSlotReachesTheThreadCap)
{
    for (const int k : {1, 2, 3, 4}) {
        testutil::ScopedThreads pin(k);
        EXPECT_LE(parallel::width(), static_cast<std::size_t>(k));
        Coverage c(20000);
        c.run(20000, 1);
        EXPECT_LT(c.max_slot.load(), static_cast<std::size_t>(k)) << k << " threads";
    }
}

TEST(ParallelFor, IdleWorkersBlockInsteadOfSpinning)
{
    Coverage c(100000);
    c.run(100000, 1);  // starts the pool and wakes every worker
    const double before = process_cpu_seconds();
    std::this_thread::sleep_for(200ms);
    EXPECT_LT(process_cpu_seconds() - before, 0.020);
}

TEST(ParallelFor, AChildForkedAfterAJobCompletesOne)
{
    Coverage warm(100000);
    warm.run(100000, 64);  // the pool's workers exist when the process forks
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::alarm(20);  // a wedged child dies of SIGALRM instead of hanging
        Coverage c(100000);
        c.run(100000, 64);
        const bool ok = std::all_of(c.runs.begin(), c.runs.end(),
                                    [](const std::atomic<int>& r) { return r.load() == 1; });
        ::_exit(ok ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child ended by signal " << WTERMSIG(status);
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace xct
