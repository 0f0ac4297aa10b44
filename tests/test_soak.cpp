// Soak-harness tests (src/soak, DESIGN.md §3h): schedule determinism,
// the faulted event simulation and its tail bound, fault-engine job
// scoping, the end-to-end event tier with its four invariants, and the
// BENCH_soak.json serialisation contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/names.hpp"
#include "faults/fault.hpp"
#include "io/datasets.hpp"
#include "soak/soak.hpp"
#include "telemetry/trace.hpp"

namespace xct::soak {
namespace {

ScheduleConfig small_schedule(std::uint64_t seed = 7)
{
    ScheduleConfig cfg;
    cfg.fleet_ranks = 64;
    cfg.epochs = 2;
    cfg.seed = seed;
    return cfg;
}

bool same_schedule(const std::vector<JobSpec>& a, const std::vector<JobSpec>& b)
{
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const JobSpec &x = a[i], &y = b[i];
        if (x.id != y.id || x.epoch != y.epoch || x.dataset != y.dataset ||
            x.scale != y.scale || x.layout.num_groups != y.layout.num_groups ||
            x.layout.ranks_per_group != y.layout.ranks_per_group || x.batches != y.batches ||
            x.seed != y.seed || x.dropout != y.dropout || x.dropout_rank != y.dropout_rank ||
            x.faults.size() != y.faults.size())
            return false;
        for (std::size_t f = 0; f < x.faults.size(); ++f) {
            if (x.faults[f].site != y.faults[f].site || x.faults[f].kind != y.faults[f].kind ||
                x.faults[f].rank != y.faults[f].rank || x.faults[f].batch != y.faults[f].batch ||
                x.faults[f].delay_s != y.faults[f].delay_s)
                return false;
        }
    }
    return true;
}

// ---- schedule generation ------------------------------------------------

TEST(SoakSchedule, IsDeterministicInTheSeedAndSensitiveToIt)
{
    const auto a = make_schedule(small_schedule(7));
    const auto b = make_schedule(small_schedule(7));
    EXPECT_TRUE(same_schedule(a, b));
    const auto c = make_schedule(small_schedule(8));
    EXPECT_FALSE(same_schedule(a, c));
}

TEST(SoakSchedule, JobsAreWellFormed)
{
    ScheduleConfig cfg = small_schedule();
    cfg.fleet_ranks = 256;
    cfg.epochs = 3;
    const auto jobs = make_schedule(cfg);
    ASSERT_EQ(jobs.size(), static_cast<std::size_t>(3 * (256 / 8)));
    bool any_faulted = false, any_dropout = false;
    for (const JobSpec& job : jobs) {
        // Shapes come from the evaluation-dataset pool and fit the fleet.
        EXPECT_NO_THROW(io::dataset_by_name(job.dataset));
        EXPECT_LE(job.nranks(), cfg.fleet_ranks / 2);
        EXPECT_GE(job.nranks(), 2);
        EXPECT_GT(job.batches, 0);
        // Fault sites are distinct within a job (a FaultPlan keys by
        // site), ranks/batches land inside the job.
        for (std::size_t i = 0; i < job.faults.size(); ++i) {
            const PlannedFault& f = job.faults[i];
            EXPECT_LT(f.rank.value(), job.nranks());
            EXPECT_LT(f.batch, job.batches);
            for (std::size_t j = i + 1; j < job.faults.size(); ++j)
                EXPECT_NE(f.site, job.faults[j].site);
            any_faulted = true;
        }
        if (job.dropout) {
            any_dropout = true;
            EXPECT_GE(job.dropout_rank.value(), 1);  // never the group-0 root
            EXPECT_GT(job.nranks(), 2);
            EXPECT_LT(job.dropout_rank.value(), job.nranks());
        }
    }
    EXPECT_TRUE(any_faulted);
    EXPECT_TRUE(any_dropout);
}

TEST(SoakSchedule, PlanMirrorsThePlannedFaults)
{
    const auto jobs = make_schedule(small_schedule());
    for (const JobSpec& job : jobs) {
        const faults::FaultPlan plan = job.plan();
        std::size_t expected = job.faults.size() + (job.dropout ? 1u : 0u);
        EXPECT_EQ(plan.specs().size(), expected);
        for (const PlannedFault& f : job.faults) {
            const auto it = plan.specs().find(f.site);
            ASSERT_NE(it, plan.specs().end());
            EXPECT_EQ(it->second.rank, f.rank);
            EXPECT_EQ(it->second.kind, f.kind);
            EXPECT_EQ(it->second.after, 0);
        }
    }
}

TEST(SoakSchedule, CorruptSitePoolCoversTheBandDecodeGate)
{
    // The q8 codec added a digested movement; the soak must be able to
    // attack it like every other gated site.
    const auto& sites = corrupt_sites();
    EXPECT_EQ(sites.size(), 7u);
    bool has_band = false;
    for (const char* s : sites) has_band |= std::string(s) == names::kSiteBandDecode;
    EXPECT_TRUE(has_band);
    // And the generator actually draws it.
    ScheduleConfig cfg = small_schedule();
    cfg.fleet_ranks = 256;
    cfg.epochs = 4;
    bool drawn = false;
    for (const JobSpec& job : make_schedule(cfg))
        for (const PlannedFault& f : job.faults) drawn |= f.site == names::kSiteBandDecode;
    EXPECT_TRUE(drawn);
}

TEST(SoakSchedule, RejectsInvalidConfigs)
{
    ScheduleConfig cfg = small_schedule();
    cfg.fleet_ranks = 2;
    EXPECT_THROW(make_schedule(cfg), std::invalid_argument);
    cfg = small_schedule();
    cfg.epochs = 0;
    EXPECT_THROW(make_schedule(cfg), std::invalid_argument);
    cfg = small_schedule();
    cfg.fault_rate = 1.5;
    EXPECT_THROW(make_schedule(cfg), std::invalid_argument);
}

// ---- faulted event simulation + tail bound ------------------------------

perfmodel::RunConfig run_config()
{
    perfmodel::RunConfig rc;
    rc.geometry = io::dataset_by_name("tomo_00027").scaled(64.0).geometry;
    rc.layout = GroupLayout{2, 4};
    rc.batches = 8;
    return rc;
}

TEST(SoakPerfmodel, NoFaultsMatchesTheCleanSimulation)
{
    const auto m = perfmodel::MachineParams::abci_v100();
    const auto rc = run_config();
    EXPECT_DOUBLE_EQ(perfmodel::simulate_faulted(rc, m, {}).runtime,
                     perfmodel::simulate(rc, m).runtime);
}

TEST(SoakPerfmodel, InjectedDelaysExtendTheRuntimeBoundedly)
{
    const auto m = perfmodel::MachineParams::abci_v100();
    const auto rc = run_config();
    const double clean = perfmodel::simulate(rc, m).runtime;
    const double delay = 0.25;
    // One stalled load batch: the pipeline absorbs some of it, but the
    // runtime can neither shrink nor grow by more than the delay.
    const double faulted =
        perfmodel::simulate_faulted(rc, m, {perfmodel::SimFault{0, 2, delay}}).runtime;
    EXPECT_GE(faulted, clean);
    EXPECT_LE(faulted, clean + delay + 1e-12);
    // Out-of-range batches clamp instead of throwing (schedules mix
    // batch counts; the last batch absorbs the tail).
    EXPECT_GE(perfmodel::simulate_faulted(rc, m, {perfmodel::SimFault{4, 999, delay}}).runtime,
              clean);
    EXPECT_THROW(perfmodel::simulate_faulted(rc, m, {perfmodel::SimFault{5, 0, delay}}),
                 std::invalid_argument);
    EXPECT_THROW(perfmodel::simulate_faulted(rc, m, {perfmodel::SimFault{0, 0, -1.0}}),
                 std::invalid_argument);
}

TEST(SoakPerfmodel, TailBoundDominatesTheFaultedSimulation)
{
    const auto m = perfmodel::MachineParams::abci_v100();
    const auto rc = run_config();
    const double delay = 0.1;
    const double faulted =
        perfmodel::simulate_faulted(rc, m, {perfmodel::SimFault{2, 1, delay}}).runtime;
    EXPECT_LE(faulted, perfmodel::tail_latency_bound(rc, m, delay, 1.25));
    EXPECT_GT(perfmodel::tail_latency_bound(rc, m, 1.0), perfmodel::tail_latency_bound(rc, m));
    EXPECT_THROW(perfmodel::tail_latency_bound(rc, m, 0.0, 0.5), std::invalid_argument);
}

// ---- fault-engine job scoping -------------------------------------------

TEST(SoakFaults, JobScopeResetsCallCountersBetweenJobs)
{
    faults::FaultPlan plan(3);
    faults::FaultSpec spec;
    spec.after = 0;
    spec.count = 1;
    spec.kind = faults::FaultKind::Corrupt;
    plan.add(names::kSiteSourceLoad, spec);
    faults::ScopedPlan install(std::move(plan));

    std::vector<float> buf(64, 1.0f);
    const auto bytes = std::as_writable_bytes(std::span<float>(buf));
    {
        faults::ScopedJob job1(101);
        EXPECT_GT(faults::corrupt(names::kSiteSourceLoad, bytes), 0);  // call 0 fires
        EXPECT_EQ(faults::corrupt(names::kSiteSourceLoad, bytes), 0);  // consumed
    }
    {
        // A fresh scope restarts the per-(site, rank) counters, so the
        // same plan fires again for the next job of the schedule.
        faults::ScopedJob job2(202);
        EXPECT_EQ(faults::job_scope(), 202u);
        EXPECT_GT(faults::corrupt(names::kSiteSourceLoad, bytes), 0);
    }
    EXPECT_EQ(faults::job_scope(), 0u);  // restored
}

// ---- the event tier end-to-end ------------------------------------------

SoakConfig event_config(std::uint64_t seed = 5)
{
    SoakConfig cfg;
    cfg.schedule = small_schedule(seed);
    cfg.live = false;  // the live tier is exercised by tools_soak_replay
    return cfg;
}

TEST(SoakRun, InvariantsHoldAndSummaryAddsUp)
{
    const SoakSummary s = run(event_config());
    EXPECT_TRUE(check_invariants(s).empty())
        << deterministic_json(s);
    EXPECT_EQ(s.jobs, static_cast<index_t>(s.job_results.size()));
    EXPECT_EQ(s.wedged, 0);
    EXPECT_GT(s.injected, 0u);
    EXPECT_EQ(s.injected, s.detected);
    EXPECT_TRUE(s.sites_match);
    EXPECT_LE(s.p99_vs_predicted, 1.0);
    EXPECT_GT(s.makespan_s, 0.0);
    for (const JobResult& jr : s.job_results) {
        EXPECT_NE(jr.state, JobState::Wedged);
        EXPECT_LE(jr.latency_s, jr.bound_s);
        EXPECT_EQ(jr.injected, jr.detected);
        EXPECT_GE(jr.finish_s, jr.start_s);
    }
}

TEST(SoakRun, ReplayIsBitIdentical)
{
    const std::string a = deterministic_json(run(event_config(11)));
    const std::string b = deterministic_json(run(event_config(11)));
    EXPECT_EQ(a, b);
    const std::string c = deterministic_json(run(event_config(12)));
    EXPECT_NE(a, c);
}

TEST(SoakRun, InvariantCheckerFlagsEachBreach)
{
    SoakSummary s = run(event_config());
    ASSERT_TRUE(check_invariants(s).empty());
    SoakSummary bad = s;
    bad.sites_match = false;
    bad.sites[0].injected += 1;
    EXPECT_FALSE(check_invariants(bad).empty());
    bad = s;
    bad.wedged = 2;
    EXPECT_FALSE(check_invariants(bad).empty());
    bad = s;
    bad.live_jobs = 1;
    bad.live_bitwise_identical = false;
    EXPECT_FALSE(check_invariants(bad).empty());
    bad = s;
    bad.p99_vs_predicted = 1.2;
    EXPECT_FALSE(check_invariants(bad).empty());
    bad = s;
    bad.injected = bad.detected = 0;  // a soak that injected nothing proves nothing
    EXPECT_FALSE(check_invariants(bad).empty());
}

TEST(SoakRun, AutotunedScheduleNeverLosesThroughputAndStaysDeterministic)
{
    // Planning on the fixed pricing machine with the job's own shape
    // must_scored guarantees planned latency <= fixed latency per job, so
    // the fleet's virtual throughput may only improve.
    const SoakSummary fixed = run(event_config(3));
    SoakConfig tuned_cfg = event_config(3);
    tuned_cfg.autotune = true;
    const SoakSummary tuned = run(tuned_cfg);
    EXPECT_GE(tuned.jobs_per_hour, fixed.jobs_per_hour);
    EXPECT_TRUE(check_invariants(tuned).empty()) << deterministic_json(tuned);
    // Replay determinism survives the planner, and the flag is part of
    // the replay-compared section so a soak cannot silently change mode.
    EXPECT_EQ(deterministic_json(tuned), deterministic_json(run(tuned_cfg)));
    EXPECT_NE(deterministic_json(tuned).find("\"autotuned\": 1"), std::string::npos);
    EXPECT_NE(deterministic_json(fixed).find("\"autotuned\": 0"), std::string::npos);
}

TEST(SoakRun, CalibrationNeedsTheLiveTier)
{
    // The event tier is virtual time — there is nothing to measure.  A
    // calibrate request without live jobs yields no calibrated machine.
    SoakConfig cfg = event_config();
    cfg.calibrate = true;
    const SoakSummary s = run(cfg);
    EXPECT_FALSE(s.calibrated);
}

TEST(SoakRun, LiveCalibrationFitsAMachineIntoTheWallSection)
{
    SoakConfig cfg = event_config(9);
    cfg.schedule.epochs = 1;
    cfg.live = true;
    cfg.calibrate = true;
    // Calibration is what this test checks, so the live job's deadline
    // gets a wide margin: its survivor reduce (takeover replay plus the
    // retried corruptions) measured up to 0.43 s on a loaded 4-core host,
    // past the 0.2 s default.  The stall stays 2x past the deadline.
    cfg.live_watchdog_timeout_s = 1.5;
    cfg.live_stall_delay_s = 3.0;
    const SoakSummary s = run(cfg);
    ASSERT_TRUE(s.calibrated);
    EXPECT_GT(s.calibrated_machine.th_bp_gups, 0.0);
    EXPECT_GT(s.calibrated_machine.bw_h2d_gbps, 0.0);
    // Calibration is wall-clock-derived, so it lives in the soak_wall
    // section, never in the replay-compared one.
    const std::filesystem::path tmp =
        std::filesystem::temp_directory_path() / "xct_soak_cal_test.json";
    write_bench_json(tmp.string(), s, /*fresh=*/true);
    std::stringstream out;
    out << std::ifstream(tmp).rdbuf();
    EXPECT_NE(out.str().find("\"soak_machine\": {"), std::string::npos);
    EXPECT_NE(out.str().find("\"th_bp_gups\""), std::string::npos);
    EXPECT_EQ(deterministic_json(s).find("soak_machine"), std::string::npos);
    std::filesystem::remove(tmp);
}

TEST(SoakRun, BenchJsonWritesFreshAndMergesOnAppend)
{
    const SoakSummary s = run(event_config());
    const std::filesystem::path tmp =
        std::filesystem::temp_directory_path() / "xct_soak_bench_test.json";
    write_bench_json(tmp.string(), s, /*fresh=*/true);
    std::stringstream fresh;
    fresh << std::ifstream(tmp).rdbuf();
    EXPECT_NE(fresh.str().find("\"soak\": {"), std::string::npos);
    EXPECT_NE(fresh.str().find("\"soak_wall\": {"), std::string::npos);
    EXPECT_NE(fresh.str().find(deterministic_json(s)), std::string::npos);

    // Appending into an existing BENCH document keeps its sections.
    std::ofstream(tmp) << "{\n  \"filter\": {\"padded_len\": 512}\n}\n";
    write_bench_json(tmp.string(), s, /*fresh=*/false);
    std::stringstream merged;
    merged << std::ifstream(tmp).rdbuf();
    EXPECT_NE(merged.str().find("\"filter\""), std::string::npos);
    EXPECT_NE(merged.str().find("\"soak\": {"), std::string::npos);
    std::filesystem::remove(tmp);
}

}  // namespace
}  // namespace xct::soak
