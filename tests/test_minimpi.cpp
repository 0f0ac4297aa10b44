// minimpi collective-semantics tests: barriers, split, rooted segmented
// reduction, hierarchical reduction, broadcast, gather.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "core/scratch.hpp"
#include "minimpi/comm.hpp"

namespace xct::minimpi {
namespace {

TEST(Run, ExecutesEveryRankOnce)
{
    std::atomic<int> count{0};
    run(6, [&](Communicator& c) {
        EXPECT_EQ(c.size(), 6);
        EXPECT_GE(c.rank(), 0);
        EXPECT_LT(c.rank(), 6);
        count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 6);
}

TEST(Run, RethrowsRankException)
{
    EXPECT_THROW(run(3,
                     [&](Communicator& c) {
                         if (c.rank() == 1) throw std::runtime_error("rank 1 boom");
                     }),
                 std::runtime_error);
}

TEST(Run, AbortWakesRanksBlockedInCollectives)
{
    // Rank 1 throws while the others sit in a barrier; they must not hang.
    EXPECT_THROW(run(4,
                     [&](Communicator& c) {
                         if (c.rank() == 1) throw std::runtime_error("boom");
                         c.barrier();
                     }),
                 std::runtime_error);
}

TEST(Barrier, OrdersPhases)
{
    std::atomic<int> before{0};
    std::atomic<bool> ok{true};
    run(5, [&](Communicator& c) {
        before.fetch_add(1);
        c.barrier();
        if (before.load() != 5) ok.store(false);
    });
    EXPECT_TRUE(ok.load());
}

TEST(ReduceSum, SumsToRoot)
{
    run(4, [&](Communicator& c) {
        std::vector<float> send(8, static_cast<float>(c.rank() + 1));
        std::vector<float> recv(c.rank() == 2 ? 8 : 0);
        c.reduce_sum(send, recv, /*root=*/2);
        if (c.rank() == 2) {
            for (float v : recv) EXPECT_FLOAT_EQ(v, 10.0f);  // 1+2+3+4
        }
    });
}

TEST(ReduceSum, DistinctElementsSurvive)
{
    run(3, [&](Communicator& c) {
        std::vector<float> send(4);
        for (int i = 0; i < 4; ++i)
            send[static_cast<std::size_t>(i)] = static_cast<float>(c.rank() * 10 + i);
        std::vector<float> recv(c.rank() == 0 ? 4 : 0);
        c.reduce_sum(send, recv, 0);
        if (c.rank() == 0) {
            for (int i = 0; i < 4; ++i)
                EXPECT_FLOAT_EQ(recv[static_cast<std::size_t>(i)], static_cast<float>(30 + 3 * i));
        }
    });
}

TEST(ReduceSum, ManySequentialReductionsStayConsistent)
{
    run(4, [&](Communicator& c) {
        for (int round = 0; round < 20; ++round) {
            std::vector<float> send(3, static_cast<float>(round));
            std::vector<float> recv(c.rank() == 0 ? 3 : 0);
            c.reduce_sum(send, recv, 0);
            if (c.rank() == 0) {
                for (float v : recv) ASSERT_FLOAT_EQ(v, 4.0f * static_cast<float>(round));
            }
        }
    });
}

TEST(AllreduceSum, EveryRankGetsTheSum)
{
    run(4, [&](Communicator& c) {
        std::vector<float> send(2, static_cast<float>(c.rank()));
        std::vector<float> recv(2);
        c.allreduce_sum(send, recv);
        EXPECT_FLOAT_EQ(recv[0], 6.0f);  // 0+1+2+3
        EXPECT_FLOAT_EQ(recv[1], 6.0f);
    });
}

TEST(AllreduceMax, ReturnsGlobalMax)
{
    run(5, [&](Communicator& c) {
        const double m = c.allreduce_max(static_cast<double>((c.rank() * 7) % 5));
        EXPECT_DOUBLE_EQ(m, 4.0);
    });
}

TEST(Split, GroupsByColor)
{
    // 6 ranks -> 2 groups of 3 (the paper's Ng x Nr grouping).
    run(6, [&](Communicator& world) {
        const index_t color = world.rank() / 3;
        Communicator g = world.split(color, world.rank());
        EXPECT_EQ(g.size(), 3);
        EXPECT_EQ(g.rank(), world.rank() % 3);
    });
}

TEST(Split, KeyControlsOrdering)
{
    run(4, [&](Communicator& world) {
        // Reverse the ordering with descending keys.
        Communicator g = world.split(0, -world.rank());
        EXPECT_EQ(g.size(), 4);
        EXPECT_EQ(g.rank(), 3 - world.rank());
    });
}

TEST(Split, SegmentedReductionsAreIndependent)
{
    // The crux of the paper's communication scheme: each group reduces its
    // own data concurrently with the others (Fig. 8).
    run(8, [&](Communicator& world) {
        const index_t group = world.rank() / 4;
        Communicator g = world.split(group, world.rank());
        std::vector<float> send(4, static_cast<float>(world.rank()));
        std::vector<float> recv(g.rank() == 0 ? 4 : 0);
        g.reduce_sum(send, recv, 0);
        if (g.rank() == 0) {
            const float expect = group == 0 ? 6.0f : 22.0f;  // 0+1+2+3 / 4+5+6+7
            for (float v : recv) EXPECT_FLOAT_EQ(v, expect);
        }
    });
}

TEST(Split, NestedSplits)
{
    run(8, [&](Communicator& world) {
        Communicator half = world.split(world.rank() / 4, world.rank());
        Communicator quarter = half.split(half.rank() / 2, half.rank());
        EXPECT_EQ(quarter.size(), 2);
    });
}

TEST(ReduceHierarchical, MatchesFlatSum)
{
    run(8, [&](Communicator& c) {
        std::vector<float> send(5);
        for (int i = 0; i < 5; ++i)
            send[static_cast<std::size_t>(i)] = static_cast<float>(c.rank()) * 0.5f +
                                                static_cast<float>(i);
        std::vector<float> flat(c.rank() == 0 ? 5 : 0);
        std::vector<float> hier(c.rank() == 0 ? 5 : 0);
        c.reduce_sum(send, flat, 0);
        c.reduce_sum_hierarchical(send, hier, 0, /*ranks_per_node=*/4);
        if (c.rank() == 0) {
            for (int i = 0; i < 5; ++i)
                EXPECT_NEAR(hier[static_cast<std::size_t>(i)], flat[static_cast<std::size_t>(i)],
                            1e-4f);
        }
    });
}

TEST(ReduceHierarchical, WorksWithRaggedLastNode)
{
    run(5, [&](Communicator& c) {  // nodes of 2: {0,1} {2,3} {4}
        std::vector<float> send(1, 1.0f);
        std::vector<float> recv(c.rank() == 0 ? 1 : 0);
        c.reduce_sum_hierarchical(send, recv, 0, 2);
        if (c.rank() == 0) {
            EXPECT_FLOAT_EQ(recv[0], 5.0f);
        }
    });
}

TEST(Bcast, RootDataReachesAll)
{
    run(4, [&](Communicator& c) {
        std::vector<float> data(3);
        if (c.rank() == 1) data = {7.0f, 8.0f, 9.0f};
        c.bcast(data, 1);
        EXPECT_FLOAT_EQ(data[0], 7.0f);
        EXPECT_FLOAT_EQ(data[2], 9.0f);
    });
}

TEST(Gather, RootCollectsInRankOrder)
{
    run(3, [&](Communicator& c) {
        std::vector<float> send(2, static_cast<float>(c.rank()));
        std::vector<float> recv(c.rank() == 0 ? 6 : 0);
        c.gather(send, recv, 0);
        if (c.rank() == 0) {
            const std::vector<float> expect{0, 0, 1, 1, 2, 2};
            EXPECT_EQ(recv, expect);
        }
    });
}

TEST(CollectiveStats, SegmentedReduceMovesLogNotLinearVolume)
{
    // The Fig. 8 claim in bytes: the binomial-tree reduction moves
    // ceil(log2 N) x payload over the root link, while the prior work's
    // gather moves (N - 1) x payload.
    constexpr index_t kRanks = 8;
    constexpr std::size_t kElems = 64;
    CollectiveStats stats;
    run(kRanks, [&](Communicator& c) {
        std::vector<float> send(kElems, 1.0f);
        std::vector<float> recv(c.rank() == 0 ? kElems : 0);
        c.reduce_sum(send, recv, 0);
        std::vector<float> gathered(c.rank() == 0 ? kElems * kRanks : 0);
        c.gather(send, gathered, 0);
        if (c.rank() == 0) stats = c.collective_stats();
    });
    const std::uint64_t payload = kElems * sizeof(float);
    EXPECT_EQ(stats.reduce_calls, 1u);
    EXPECT_EQ(stats.reduce_root_bytes, 3u * payload);  // ceil(log2 8) = 3 levels
    EXPECT_EQ(stats.gather_calls, 1u);
    EXPECT_EQ(stats.gather_root_bytes, (kRanks - 1) * payload);
    EXPECT_LT(stats.reduce_root_bytes, stats.gather_root_bytes);
}

TEST(CollectiveStats, HierarchicalReduceCountsLeaderLevelsOnly)
{
    // With 8 ranks at 4 per node there are 2 node leaders, so the
    // inter-node phase is ceil(log2 2) = 1 level of payload.
    constexpr std::size_t kElems = 32;
    CollectiveStats stats;
    run(8, [&](Communicator& c) {
        std::vector<float> send(kElems, 1.0f);
        std::vector<float> recv(c.rank() == 0 ? kElems : 0);
        c.reduce_sum_hierarchical(send, recv, 0, /*ranks_per_node=*/4);
        if (c.rank() == 0) stats = c.collective_stats();
    });
    EXPECT_EQ(stats.hierarchical_calls, 1u);
    EXPECT_EQ(stats.hierarchical_root_bytes, kElems * sizeof(float));
}

TEST(CollectiveStats, SplitCommunicatorsAccountIndependently)
{
    run(4, [&](Communicator& world) {
        Communicator g = world.split(world.rank() / 2, world.rank());
        std::vector<float> send(16, 1.0f);
        std::vector<float> recv(g.rank() == 0 ? 16 : 0);
        g.reduce_sum(send, recv, 0);
        if (g.rank() == 0) {
            const CollectiveStats gs = g.collective_stats();
            EXPECT_EQ(gs.reduce_calls, 1u);
            // 2-rank group: ceil(log2 2) = 1 level.
            EXPECT_EQ(gs.reduce_root_bytes, 16u * sizeof(float));
        }
        // No collective ever ran on the world communicator itself.
        EXPECT_EQ(world.collective_stats().reduce_calls, 0u);
    });
}

TEST(ReduceSum, SingleRankIsIdentity)
{
    run(1, [&](Communicator& c) {
        std::vector<float> send{1.5f, -2.0f};
        std::vector<float> recv(2);
        c.reduce_sum(send, recv, 0);
        EXPECT_FLOAT_EQ(recv[0], 1.5f);
        EXPECT_FLOAT_EQ(recv[1], -2.0f);
    });
}

TEST(Run, RejectsZeroRanks)
{
    EXPECT_THROW(run(0, [](Communicator&) {}), std::invalid_argument);
}

TEST(ReduceSum, RepeatedHierarchicalReducesReuseScratchStaging)
{
    // Node leaders lease their intra-node sum buffer from the per-thread
    // scratch pool, so within one communicator session a second reduce of
    // the same shape allocates nothing (the final sync of each collective
    // orders every rank's first-call lease before the second call starts).
    std::uint64_t second = 0;
    run(4, [&](Communicator& c) {
        std::vector<float> send(1024, 1.0f);
        std::vector<float> recv(c.rank() == 0 ? 1024 : 0);
        c.reduce_sum_hierarchical(send, recv, 0, /*ranks_per_node=*/2);
        const std::uint64_t e1 = scratch::heap_events();
        c.reduce_sum_hierarchical(send, recv, 0, /*ranks_per_node=*/2);
        const std::uint64_t e2 = scratch::heap_events();
        if (c.rank() == 0) {
            second = e2 - e1;
            EXPECT_FLOAT_EQ(recv[0], 4.0f);
        }
    });
    EXPECT_EQ(second, 0u);
}

class ScalingRanks : public ::testing::TestWithParam<index_t> {};

TEST_P(ScalingRanks, ReduceCorrectAtAnySize)
{
    const index_t n = GetParam();
    run(n, [&](Communicator& c) {
        std::vector<float> send(2, 1.0f);
        std::vector<float> recv(c.rank() == 0 ? 2 : 0);
        c.reduce_sum(send, recv, 0);
        if (c.rank() == 0) {
            EXPECT_FLOAT_EQ(recv[0], static_cast<float>(n));
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScalingRanks, ::testing::Values<index_t>(1, 2, 3, 4, 7, 16, 32));

}  // namespace
}  // namespace xct::minimpi
