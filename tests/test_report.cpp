// Run-report tests: the measured-vs-predicted join (stages, batches,
// roofline attribution), straggler flagging against the fleet median,
// fleet percentile aggregation through the log-bucketed histograms, and
// the typed JSON serialisation.
#include <gtest/gtest.h>

#include <sstream>

#include "telemetry/report.hpp"

namespace xct::telemetry::report {
namespace {

CbctGeometry small_geo()
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = 32;
    g.nu = 64;
    g.nv = 64;
    g.du = g.dv = 0.4;
    g.vol = {32, 32, 32};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, 32) * 0.7;
    return g;
}

perfmodel::RunConfig small_cfg()
{
    perfmodel::RunConfig cfg;
    cfg.geometry = small_geo();
    cfg.layout = GroupLayout{1, 3};
    cfg.batches = 4;
    return cfg;
}

RankTimings plain_rank(index_t rank, double scale = 1.0)
{
    RankTimings t;
    t.rank = RankId{rank};
    t.load = 0.10 * scale;
    t.filter = 0.20 * scale;
    t.prefetch = 0.15 * scale;
    t.bp = 0.40 * scale;
    t.reduce = 0.05 * scale;
    t.store = 0.05 * scale;
    t.wall = 1.0 * scale;
    return t;
}

TEST(Report, BuildJoinsEveryStageAgainstTheModel)
{
    const RunReport r = build(small_cfg(), perfmodel::MachineParams{},
                              {plain_rank(0), plain_rank(1), plain_rank(2)});
    ASSERT_EQ(r.stages.size(), 6u);
    const char* expected[] = {"load", "filter", "prefetch", "bp", "reduce", "store"};
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(r.stages[i].stage, expected[i]);
        EXPECT_GT(r.stages[i].measured_s, 0.0);
        if (r.stages[i].stage == "prefetch") continue;  // PrefetchIsMeasuredButNotModelled
        EXPECT_GT(r.stages[i].predicted_s, 0.0);
        EXPECT_GT(r.stages[i].efficiency, 0.0);
    }
    EXPECT_GT(r.predicted_runtime_s, 0.0);
    EXPECT_GT(r.predicted_gups, 0.0);
    EXPECT_DOUBLE_EQ(r.measured_wall_s, 1.0);
    EXPECT_DOUBLE_EQ(r.efficiency, r.predicted_runtime_s / 1.0);
    // One of the four Eq. 17 aggregates binds the projection.
    EXPECT_TRUE(r.binding_stage == "cpu" || r.binding_stage == "gpu" ||
                r.binding_stage == "reduce" || r.binding_stage == "store");
    EXPECT_THROW(build(small_cfg(), perfmodel::MachineParams{}, {plain_rank(0)}, 1.0),
                 std::invalid_argument);
}

TEST(Report, StageMedianIsRobustToOneStraggler)
{
    // Median over {1x, 1x, 10x} is the healthy 1x — the straggler does
    // not drag the fleet baseline it is judged against.
    const RunReport r = build(small_cfg(), perfmodel::MachineParams{},
                              {plain_rank(0), plain_rank(1), plain_rank(2, 10.0)});
    EXPECT_DOUBLE_EQ(r.stages[3].measured_s, 0.40);  // bp
}

TEST(Report, PrefetchIsMeasuredButNotModelled)
{
    // The band-staging stage counts toward busy time and gets a fleet
    // median and straggler flags like any stage, but Eqs. 13-16 have no
    // term for it: it predicts 0 and reports efficiency 0.
    std::vector<RankTimings> ranks = {plain_rank(0), plain_rank(1), plain_rank(2)};
    ranks[1].prefetch = 0.25;
    ranks[2].prefetch = 2.0;
    const RunReport r = build(small_cfg(), perfmodel::MachineParams{}, ranks, 1.5);
    const StageReport& pre = r.stages[2];
    EXPECT_EQ(pre.stage, "prefetch");
    EXPECT_DOUBLE_EQ(pre.measured_s, 0.25);
    EXPECT_EQ(pre.predicted_s, 0.0);
    EXPECT_EQ(pre.efficiency, 0.0);
    EXPECT_DOUBLE_EQ(r.ranks[0].busy_s, 0.10 + 0.20 + 0.15 + 0.40 + 0.05 + 0.05);
    ASSERT_EQ(r.ranks[2].flags.size(), 1u);
    EXPECT_EQ(r.ranks[2].flags[0], "straggler:prefetch");
}

TEST(Report, StragglerRanksAreFlaggedPerStage)
{
    std::vector<RankTimings> ranks = {plain_rank(0), plain_rank(1), plain_rank(2)};
    ranks[2].bp = 10.0 * ranks[0].bp;  // 10x the fleet median, > 1 ms
    const RunReport r = build(small_cfg(), perfmodel::MachineParams{}, ranks, 1.5);
    ASSERT_EQ(r.ranks.size(), 3u);
    EXPECT_TRUE(r.ranks[0].flags.empty());
    EXPECT_TRUE(r.ranks[1].flags.empty());
    ASSERT_EQ(r.ranks[2].flags.size(), 1u);
    EXPECT_EQ(r.ranks[2].flags[0], "straggler:bp");
}

TEST(Report, TimerNoiseBelowTheFloorIsNotAStraggler)
{
    // All stages scaled to microseconds: 10x the median is still under
    // the 1 ms floor, so nothing is flagged.
    std::vector<RankTimings> ranks = {plain_rank(0, 1e-5), plain_rank(1, 1e-5),
                                      plain_rank(2, 1e-4)};
    const RunReport r = build(small_cfg(), perfmodel::MachineParams{}, ranks, 1.5);
    for (const RankReport& k : r.ranks) EXPECT_TRUE(k.flags.empty());
}

TEST(Report, BatchRowsSumSpansAndAverageAcrossRanks)
{
    std::vector<RankTimings> ranks = {plain_rank(0), plain_rank(1)};
    // Two ranks, batch 0: bp spans of 0.4 and 0.2 -> mean 0.3; the
    // pipeline's "mpi" stage maps onto the model's reduce field.
    ranks[0].spans = {{"bp", 0, 0.4}, {"mpi", 0, 0.1}, {"restore", 0, 9.0}, {"load", -1, 9.0}};
    ranks[1].spans = {{"bp", 0, 0.2}, {"mpi", 0, 0.3}, {"bp", 1, 0.5}};
    const RunReport r = build(small_cfg(), perfmodel::MachineParams{}, ranks);
    ASSERT_EQ(r.batches.size(), 2u);
    EXPECT_EQ(r.batches[0].batch, 0);
    EXPECT_DOUBLE_EQ(r.batches[0].measured.bp, 0.3);
    EXPECT_DOUBLE_EQ(r.batches[0].measured.reduce, 0.2);
    EXPECT_DOUBLE_EQ(r.batches[0].measured.load, 0.0);  // item -1 dropped
    EXPECT_EQ(r.batches[1].batch, 1);
    EXPECT_DOUBLE_EQ(r.batches[1].measured.bp, 0.25);  // 0.5 over 2 ranks
    // Predictions come from the matching Eq. 13-16 batch.
    EXPECT_GT(r.batches[0].predicted.bp, 0.0);
}

TEST(Report, FleetObserveFeedsPercentiles)
{
    // 20 healthy ranks and one straggler: the p99 must sit well above
    // the p50 for the stage the straggler is slow in.
    for (index_t i = 0; i < 20; ++i) observe_fleet(plain_rank(i));
    observe_fleet(plain_rank(20, 50.0));
    const auto fleet = fleet_percentiles(registry().snapshot());
    ASSERT_FALSE(fleet.empty());
    bool saw_bp = false;
    for (const FleetStage& f : fleet) {
        EXPECT_GE(f.ranks, 21u);
        EXPECT_LE(f.p50_s, f.p95_s);
        EXPECT_LE(f.p95_s, f.p99_s);
        if (f.stage == "bp") {
            saw_bp = true;
            EXPECT_GT(f.p99_s, 2.0 * f.p50_s);
        }
    }
    EXPECT_TRUE(saw_bp);
    EXPECT_GE(registry().counter("fleet.ranks").value(), 21u);
}

TEST(Report, WriteJsonEmitsTypedSchema)
{
    std::vector<RankTimings> ranks = {plain_rank(0), plain_rank(1), plain_rank(2, 10.0)};
    ranks[0].spans = {{"bp", 0, 0.4}};
    const RunReport r = build(small_cfg(), perfmodel::MachineParams{}, ranks);
    std::ostringstream os;
    write_json(os, r);
    const std::string j = os.str();
    EXPECT_NE(j.find("\"schema\": \"xct.report.v1\""), std::string::npos);
    EXPECT_NE(j.find("\"binding_stage\""), std::string::npos);
    EXPECT_NE(j.find("\"stages\""), std::string::npos);
    EXPECT_NE(j.find("\"predicted_s\""), std::string::npos);
    EXPECT_NE(j.find("\"batches\""), std::string::npos);
    EXPECT_NE(j.find("\"ranks\""), std::string::npos);
    EXPECT_NE(j.find("\"fleet\""), std::string::npos);
    EXPECT_NE(j.find("straggler:"), std::string::npos);
    EXPECT_NE(j.find("\"ranks_per_group\": 3"), std::string::npos);
}

}  // namespace
}  // namespace xct::telemetry::report
