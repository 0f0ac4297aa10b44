// Autotuner tests (src/autotune, DESIGN.md §3j): planner determinism and
// its never-worse-than-must_score guarantee, device-budget feasibility,
// the q8 wire-byte model, and the calibrator — aggregate-ratio fitting,
// BENCH-file seeding, run-stat folding, and the machine-JSON artifact.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "autotune/calibrate.hpp"
#include "autotune/planner.hpp"
#include "core/json.hpp"

namespace xct::autotune {
namespace {

CbctGeometry geo(index_t n = 64, index_t np = 256)
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = np;
    g.nu = 2 * n;
    g.nv = 2 * n;
    g.du = 0.4;
    g.dv = 0.4;
    g.vol = {n, n, n};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x) * 0.7;
    return g;
}

JobShape job_shape()
{
    JobShape job;
    job.geometry = geo();
    job.rank_budget = 16;
    job.device_capacity = 64u << 20;
    return job;
}

// ---- planner -------------------------------------------------------------

TEST(Planner, IsDeterministicAndScoresTheWholeFeasibleLattice)
{
    const JobShape job = job_shape();
    const auto m = perfmodel::MachineParams::abci_v100();
    const Plan a = plan_job(job, m);
    const Plan b = plan_job(job, m);
    EXPECT_EQ(a.layout.num_groups, b.layout.num_groups);
    EXPECT_EQ(a.layout.ranks_per_group, b.layout.ranks_per_group);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.queue_depth, b.queue_depth);
    EXPECT_EQ(a.candidates_scored, b.candidates_scored);
    EXPECT_DOUBLE_EQ(a.predicted_runtime_s, b.predicted_runtime_s);
    EXPECT_GT(a.candidates_scored, 0);
    EXPECT_GT(a.predicted_runtime_s, 0.0);
    EXPECT_GT(a.predicted_gups, 0.0);
    EXPECT_LE(a.layout.nranks(), job.rank_budget);
    EXPECT_TRUE(feasible(job, Candidate{a.layout, a.batches, a.queue_depth}));
}

TEST(Planner, NeverPicksWorseThanAMustScoreCandidate)
{
    // The soak scheduler and xct_recon --autotune always must_score the
    // fixed CLI shape; the plan's predicted runtime may not exceed it.
    const JobShape job = job_shape();
    const auto m = perfmodel::MachineParams::abci_v100();
    const Candidate fixed{GroupLayout{2, 2}, 8, 2};
    ASSERT_TRUE(feasible(job, fixed));
    const Plan plan = plan_job(job, m, {fixed});
    EXPECT_LE(plan.predicted_runtime_s, predict_runtime(job, fixed, m) + 1e-15);
}

TEST(Planner, PredictRuntimeMatchesThePlansOwnScore)
{
    const JobShape job = job_shape();
    const auto m = perfmodel::MachineParams::abci_v100();
    const Plan plan = plan_job(job, m);
    const Candidate picked{plan.layout, plan.batches, plan.queue_depth};
    EXPECT_DOUBLE_EQ(predict_runtime(job, picked, m), plan.predicted_runtime_s);
}

TEST(Planner, ThrowsWhenNothingFitsTheDeviceBudget)
{
    JobShape job = job_shape();
    job.device_capacity = 1024;  // nothing fits 1 KiB
    EXPECT_FALSE(feasible(job, Candidate{GroupLayout{2, 2}, 8, 2}));
    EXPECT_THROW(plan_job(job, perfmodel::MachineParams::abci_v100()), std::invalid_argument);
}

TEST(Planner, FeasibilityRejectsMalformedShapes)
{
    const JobShape job = job_shape();
    EXPECT_FALSE(feasible(job, Candidate{GroupLayout{0, 2}, 8, 2}));
    EXPECT_FALSE(feasible(job, Candidate{GroupLayout{2, 2}, 0, 2}));
    EXPECT_FALSE(feasible(job, Candidate{GroupLayout{2, 2}, 8, 0}));
    // More groups than slices cannot be laid out.
    EXPECT_FALSE(feasible(job, Candidate{GroupLayout{job.geometry.vol.z * 2, 1}, 8, 2}));
}

TEST(Planner, Q8WireBytesAreAQuarterOfRaw)
{
    const CbctGeometry g = geo();
    const GroupLayout layout{2, 2};
    const std::uint64_t raw = h2d_wire_bytes(g, layout, 8, io::BandCodec::Raw);
    const std::uint64_t q8 = h2d_wire_bytes(g, layout, 8, io::BandCodec::Q8);
    EXPECT_GT(q8, 0u);
    EXPECT_EQ(raw, q8 * sizeof(float));  // one byte per texel vs fp32
}

TEST(Planner, PlanCarriesTheJobCodecIntoItsByteModel)
{
    JobShape job = job_shape();
    const auto m = perfmodel::MachineParams::abci_v100();
    const Plan raw = plan_job(job, m);
    job.codec = io::BandCodec::Q8;
    const Plan q8 = plan_job(job, m);
    EXPECT_EQ(raw.codec, io::BandCodec::Raw);
    EXPECT_EQ(q8.codec, io::BandCodec::Q8);
    EXPECT_EQ(h2d_wire_bytes(job.geometry, q8.layout, q8.batches, io::BandCodec::Q8),
              q8.predicted_h2d_bytes);
    // Same layout or not, compression may only shrink the modelled bytes.
    EXPECT_LT(q8.predicted_h2d_bytes, raw.predicted_h2d_bytes);
}

TEST(Planner, SummaryNamesThePick)
{
    const Plan plan = plan_job(job_shape(), perfmodel::MachineParams::abci_v100());
    const std::string s = plan_summary(plan);
    EXPECT_NE(s.find("ng="), std::string::npos);
    EXPECT_NE(s.find("codec=raw"), std::string::npos);
    EXPECT_NE(s.find("candidates"), std::string::npos);
}

// ---- calibrator ----------------------------------------------------------

TEST(Calibrate, FitIsTheAggregateRatioAndKeepsUnmeasuredRates)
{
    Calibrator cal;
    EXPECT_EQ(cal.samples(), 0u);
    // Two observations of the same rate aggregate time-weighted:
    // (3e9 + 1e9) work over (1 + 1) seconds = 2 giga-units/s.
    cal.observe(Param::ThBp, 3e9, 1.0);
    cal.observe(Param::ThBp, 1e9, 1.0);
    cal.observe(Param::BwH2d, 12e9, 2.0);
    EXPECT_EQ(cal.samples(), 3u);

    const auto base = perfmodel::MachineParams::abci_v100();
    const auto m = cal.fit(base);
    EXPECT_DOUBLE_EQ(m.th_bp_gups, 2.0);
    EXPECT_DOUBLE_EQ(m.bw_h2d_gbps, 6.0);
    // Everything unobserved stays at the base machine.
    EXPECT_DOUBLE_EQ(m.bw_load_gbps, base.bw_load_gbps);
    EXPECT_DOUBLE_EQ(m.th_flt_geps, base.th_flt_geps);
    EXPECT_DOUBLE_EQ(m.bw_d2h_gbps, base.bw_d2h_gbps);
}

TEST(Calibrate, IgnoresDegenerateObservations)
{
    Calibrator cal;
    cal.observe(Param::ThFlt, 0.0, 1.0);
    cal.observe(Param::ThFlt, 1e9, 0.0);
    cal.observe(Param::ThFlt, -1e9, 1.0);
    EXPECT_EQ(cal.samples(), 0u);
}

TEST(Calibrate, SeedsKernelRatesFromABenchFile)
{
    const auto tmp = std::filesystem::temp_directory_path() / "xct_cal_bench_test.json";
    std::ofstream(tmp) << "{\n"
                          "  \"backproj\": {\"updates_per_s_simd\": 2.5e9,\n"
                          "                 \"updates_per_s_scalar\": 1e9},\n"
                          "  \"filter\": {\"elems_per_s_fp32\": 5e8}\n"
                          "}\n";
    Calibrator cal;
    cal.observe_bench_file(tmp.string());
    const auto m = cal.fit(perfmodel::MachineParams::abci_v100());
    // simd wins over scalar when both are present.
    EXPECT_DOUBLE_EQ(m.th_bp_gups, 2.5);
    EXPECT_DOUBLE_EQ(m.th_flt_geps, 0.5);
    std::filesystem::remove(tmp);

    EXPECT_THROW(cal.observe_bench_file("/nonexistent/bench.json"), std::runtime_error);
}

TEST(Calibrate, FoldsRunStatsWithModelConsistentWorkTerms)
{
    perfmodel::RunConfig rc;
    rc.geometry = geo(32, 64);
    rc.layout = GroupLayout{2, 2};
    rc.batches = 4;

    MeasuredRank r;
    r.rank_index = 0;
    r.load_s = 0.5;
    r.filter_s = 0.25;
    r.bp_s = 1.0;
    r.h2d_bytes = 4'000'000'000ull;
    r.h2d_s = 2.0;
    r.d2h_bytes = 1'000'000'000ull;
    r.d2h_s = 1.0;
    Calibrator cal;
    cal.observe_run(rc, {r});
    EXPECT_EQ(cal.samples(), 5u);  // load, filter, bp, h2d, d2h

    const auto base = perfmodel::MachineParams::abci_v100();
    const auto m = cal.fit(base);
    // Link rates use the measured byte totals directly.
    EXPECT_DOUBLE_EQ(m.bw_h2d_gbps, 2.0);
    EXPECT_DOUBLE_EQ(m.bw_d2h_gbps, 1.0);
    // Stage rates come out positive and displace the base guess.
    EXPECT_GT(m.th_bp_gups, 0.0);
    EXPECT_GT(m.th_flt_geps, 0.0);
    EXPECT_GT(m.bw_load_gbps, 0.0);
    EXPECT_NE(m.th_bp_gups, base.th_bp_gups);
}

TEST(Calibrate, MachineJsonRoundTripsAndValidates)
{
    perfmodel::MachineParams m = perfmodel::MachineParams::abci_a100();
    m.bw_h2d_gbps = 11.75;
    const auto tmp = std::filesystem::temp_directory_path() / "xct_machine_test.json";
    write_machine_json(tmp.string(), m);
    EXPECT_NE(machine_json(m).find("xct.machine.v1"), std::string::npos);

    const perfmodel::MachineParams back = read_machine_json(tmp.string());
    EXPECT_DOUBLE_EQ(back.bw_load_gbps, m.bw_load_gbps);
    EXPECT_DOUBLE_EQ(back.bw_store_gbps, m.bw_store_gbps);
    EXPECT_DOUBLE_EQ(back.th_flt_geps, m.th_flt_geps);
    EXPECT_DOUBLE_EQ(back.th_bp_gups, m.th_bp_gups);
    EXPECT_DOUBLE_EQ(back.th_reduce_gbps, m.th_reduce_gbps);
    EXPECT_DOUBLE_EQ(back.bw_h2d_gbps, 11.75);
    EXPECT_DOUBLE_EQ(back.bw_d2h_gbps, m.bw_d2h_gbps);

    // Missing file, missing key, non-positive value: all loud failures.
    EXPECT_THROW(read_machine_json("/nonexistent/machine.json"), std::runtime_error);
    std::ofstream(tmp) << "{\"schema\": \"xct.machine.v1\", \"bw_load_gbps\": 1.0}\n";
    EXPECT_THROW(read_machine_json(tmp.string()), std::runtime_error);
    std::ofstream(tmp) << machine_json(m);
    {
        std::string text = machine_json(m);
        const auto at = text.find("\"th_bp_gups\": ");
        text.replace(at, text.find(',', at) - at, "\"th_bp_gups\": -1");
        std::ofstream(tmp) << text;
    }
    EXPECT_THROW(read_machine_json(tmp.string()), std::runtime_error);

    // Non-finite values, a wrong schema, a truncated file and non-JSON
    // text that merely contains the seven keys are all rejected.
    const std::string good = machine_json(m);
    const auto replaced = [&](const std::string& from, const std::string& to) {
        std::string text = good;
        text.replace(text.find(from), from.size(), to);
        return text;
    };
    const std::string value = json_number(m.th_bp_gups);
    const std::string bad_docs[] = {
        replaced("\"th_bp_gups\": " + value, "\"th_bp_gups\": nan"),
        replaced("\"th_bp_gups\": " + value, "\"th_bp_gups\": inf"),
        replaced("\"th_bp_gups\": " + value, "\"th_bp_gups\": 1e999"),
        replaced("\"th_bp_gups\": " + value, "\"th_bp_gups\": \"fast\""),
        replaced("xct.machine.v1", "xct.machine.v0"),
        good.substr(0, good.size() / 2),
        "bw_load_gbps: 1 \"bw_load_gbps\": 1 \"bw_store_gbps\": 1 \"th_flt_geps\": 1 "
        "\"th_bp_gups\": 1 \"th_reduce_gbps\": 1 \"bw_h2d_gbps\": 1 \"bw_d2h_gbps\": 1\n",
    };
    for (const std::string& text : bad_docs) {
        std::ofstream(tmp) << text;
        EXPECT_THROW(read_machine_json(tmp.string()), std::runtime_error) << text;
    }
    std::ofstream(tmp) << good;
    EXPECT_NO_THROW(read_machine_json(tmp.string()));
    std::filesystem::remove(tmp);
}

// ---- calibrate -> plan loop ----------------------------------------------

TEST(Autotune, CalibratedMachineRescoresThePlanCoherently)
{
    // A machine with 4x the back-projection rate cannot predict a slower
    // runtime for the same candidate — the closed loop (measure, fit,
    // re-plan) must move predictions in the physical direction.
    const JobShape job = job_shape();
    const auto base = perfmodel::MachineParams::abci_v100();
    Calibrator cal;
    cal.observe(Param::ThBp, base.th_bp_gups * 4e9, 1.0);
    const auto fast = cal.fit(base);
    const Candidate c{GroupLayout{2, 2}, 8, 2};
    EXPECT_LE(predict_runtime(job, c, fast), predict_runtime(job, c, base));
    // And the planner still returns a feasible pick under the new machine.
    const Plan plan = plan_job(job, fast, {c});
    EXPECT_LE(plan.predicted_runtime_s, predict_runtime(job, c, fast) + 1e-15);
}

}  // namespace
}  // namespace xct::autotune
