// Failure-injection and edge-case tests: the pipeline and the distributed
// framework must fail loudly and cleanly (no deadlocks, no partial
// results presented as complete) when a component misbehaves — and, with
// the resilience layer engaged (fault plans + retry + checkpoint/restart
// + degraded reduce), recover to a volume *bitwise identical* to an
// unfaulted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <thread>

#include <fstream>

#include "core/simd.hpp"
#include "faults/checkpoint.hpp"
#include "faults/retry.hpp"
#include "integrity/integrity.hpp"
#include "integrity/watchdog.hpp"
#include "io/pfs.hpp"
#include "io/raw_io.hpp"
#include "recon/distributed.hpp"
#include "recon/fdk.hpp"
#include "sim/device.hpp"
#include "telemetry/metrics.hpp"

namespace xct::recon {
namespace {

CbctGeometry geo(index_t n = 24, index_t np = 24)
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = np;
    g.nu = 2 * n;
    g.nv = 2 * n;
    g.du = 0.5;
    g.dv = 0.5;
    g.vol = {n, n, n};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x) * 0.7;
    return g;
}

/// Source that throws on the Nth load call.
class FailingSource final : public ProjectionSource {
public:
    FailingSource(const CbctGeometry& g, index_t fail_at) : g_(g), fail_at_(fail_at) {}

    ProjectionStack load(Range views, Range band) override
    {
        if (calls_++ == fail_at_) throw std::runtime_error("injected source failure");
        return ProjectionStack(views.length(), band, g_.nu, 0.0f);
    }

private:
    CbctGeometry g_;
    index_t fail_at_;
    index_t calls_ = 0;
};

TEST(Faults, SourceFailureOnFirstBatchPropagates)
{
    const CbctGeometry g = geo();
    FailingSource src(g, 0);
    RankConfig cfg;
    cfg.geometry = g;
    EXPECT_THROW(reconstruct_fdk(cfg, src), std::runtime_error);
}

TEST(Faults, SourceFailureMidPipelinePropagatesWithoutDeadlock)
{
    // The load thread dies while filter/bp are busy; the pipeline must
    // shut down all queues and rethrow, not hang.
    const CbctGeometry g = geo();
    for (index_t fail_at : {1, 2, 4}) {
        FailingSource src(g, fail_at);
        RankConfig cfg;
        cfg.geometry = g;
        cfg.batches = 8;
        cfg.threaded = true;
        EXPECT_THROW(reconstruct_fdk(cfg, src), std::runtime_error) << "fail_at=" << fail_at;
    }
}

TEST(Faults, SequentialPipelineAlsoPropagates)
{
    const CbctGeometry g = geo();
    FailingSource src(g, 2);
    RankConfig cfg;
    cfg.geometry = g;
    cfg.batches = 8;
    cfg.threaded = false;
    EXPECT_THROW(reconstruct_fdk(cfg, src), std::runtime_error);
}

TEST(Faults, ReducerFailurePropagates)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(4.0);
    PhantomSource src(ph, g);
    RankConfig cfg;
    cfg.geometry = g;
    cfg.views = Range{0, g.num_proj};
    cfg.slices = Range{0, g.vol.z};
    auto bad_reduce = [](Volume&, const SlabPlan&) -> bool {
        throw std::runtime_error("injected reducer failure");
    };
    EXPECT_THROW(run_rank(cfg, src, bad_reduce, [](const Volume&, const SlabPlan&) {}),
                 std::runtime_error);
}

TEST(Faults, StoreFailurePropagates)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(4.0);
    PhantomSource src(ph, g);
    RankConfig cfg;
    cfg.geometry = g;
    cfg.views = Range{0, g.num_proj};
    cfg.slices = Range{0, g.vol.z};
    auto bad_store = [](const Volume&, const SlabPlan&) {
        throw std::runtime_error("injected store failure");
    };
    EXPECT_THROW(run_rank(cfg, src, identity_reducer, bad_store), std::runtime_error);
}

TEST(Faults, OneFailingRankAbortsTheWholeTeam)
{
    // A rank whose source dies must not leave its peers blocked in the
    // segmented reduction — minimpi's abort path wakes them.
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(4.0);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{1, 4};
    std::atomic<int> built{0};
    auto factory = [&](RankId rank) -> std::unique_ptr<ProjectionSource> {
        built.fetch_add(1);
        if (rank == RankId{2}) return std::make_unique<FailingSource>(g, 1);
        return std::make_unique<PhantomSource>(ph, g);
    };
    EXPECT_THROW(reconstruct_distributed(cfg, factory), std::runtime_error);
    EXPECT_EQ(built.load(), 4);
}

TEST(Faults, NullSourceFactoryIsRejected)
{
    const CbctGeometry g = geo();
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{1, 2};
    auto factory = [](RankId) -> std::unique_ptr<ProjectionSource> { return nullptr; };
    EXPECT_THROW(reconstruct_distributed(cfg, factory), std::invalid_argument);
}

// ---- boundary configurations ------------------------------------------

TEST(EdgeCases, SingleSliceVolume)
{
    CbctGeometry g = geo();
    g.vol.z = 1;
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    const FdkResult r = reconstruct_fdk(g, ph);
    EXPECT_EQ(r.volume.size().z, 1);
    EXPECT_GT(r.volume.at(g.vol.x / 2, g.vol.y / 2, 0), 0.05f);
}

TEST(EdgeCases, SingleViewScan)
{
    CbctGeometry g = geo();
    g.num_proj = 1;
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    PhantomSource src(ph, g);
    RankConfig cfg;
    cfg.geometry = g;
    EXPECT_NO_THROW(reconstruct_fdk(cfg, src));
}

TEST(EdgeCases, MoreBatchesThanSlices)
{
    const CbctGeometry g = geo(8, 16);  // 8 slices
    const auto ph = phantom::shepp_logan_3d(g.dx * 3.0);
    PhantomSource a(ph, g);
    PhantomSource b(ph, g);
    RankConfig few;
    few.geometry = g;
    few.batches = 2;
    RankConfig many;
    many.geometry = g;
    many.batches = 64;  // Nb clamps to 1 slice per slab
    const FdkResult ra = reconstruct_fdk(few, a);
    const FdkResult rb = reconstruct_fdk(many, b);
    for (index_t i = 0; i < ra.volume.count(); ++i)
        ASSERT_NEAR(ra.volume.span()[static_cast<std::size_t>(i)],
                    rb.volume.span()[static_cast<std::size_t>(i)], 1e-5f);
}

TEST(EdgeCases, NonCubicAnisotropicVolume)
{
    CbctGeometry g = geo();
    g.vol = {20, 28, 12};
    g.dx = 0.31;
    g.dy = 0.17;
    g.dz = 0.43;
    const auto ph = phantom::shepp_logan_3d(2.0);
    PhantomSource src(ph, g);
    RankConfig cfg;
    cfg.geometry = g;
    const FdkResult r = reconstruct_fdk(cfg, src);
    EXPECT_EQ(r.volume.size(), (Dim3{20, 28, 12}));
    for (float v : r.volume.span()) ASSERT_TRUE(std::isfinite(v));
}

TEST(EdgeCases, OddSizesAndPrimeCounts)
{
    // Nothing in the decomposition may assume divisibility.
    CbctGeometry g = geo();
    g.vol = {17, 19, 23};
    g.num_proj = 31;
    g.nu = 53;
    g.nv = 47;
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x) * 0.6;
    const auto ph = phantom::shepp_logan_3d(g.dx * 7.0);

    PhantomSource single(ph, g);
    RankConfig one;
    one.geometry = g;
    one.batches = 5;
    const FdkResult ref = reconstruct_fdk(one, single);

    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{3, 2};  // 23 slices over 3 groups, 31 views over 2 ranks
    cfg.batches = 3;
    const auto factory = [&](RankId) { return std::make_unique<PhantomSource>(ph, g); };
    const DistributedResult r = reconstruct_distributed(cfg, factory);
    for (index_t i = 0; i < ref.volume.count(); ++i)
        ASSERT_NEAR(r.volume.span()[static_cast<std::size_t>(i)],
                    ref.volume.span()[static_cast<std::size_t>(i)], 2e-5f);
}

TEST(EdgeCases, VolumeTallerThanDetectorFov)
{
    // Outer slabs project entirely off-detector (empty bands); they must
    // come back zero, not crash (the paper's 4096^3 outputs do exceed the
    // vertical FOV of the tomobank detectors).
    CbctGeometry g = geo();
    g.vol.z = g.vol.z * 4;  // much taller than the FOV
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    PhantomSource src(ph, g);
    RankConfig cfg;
    cfg.geometry = g;
    cfg.batches = 12;
    const FdkResult r = reconstruct_fdk(cfg, src);
    // Top and bottom slices: no detector coverage -> exactly zero.
    for (index_t j = 0; j < g.vol.y; ++j)
        for (index_t i = 0; i < g.vol.x; ++i) {
            ASSERT_EQ(r.volume.at(i, j, 0), 0.0f);
            ASSERT_EQ(r.volume.at(i, j, g.vol.z - 1), 0.0f);
        }
    // Centre still reconstructs.
    EXPECT_GT(r.volume.at(g.vol.x / 2, g.vol.y / 2, g.vol.z / 2), 0.05f);
}

// ---- resilience: fault plans, retry, checkpoint, degraded reduce ------

/// Fresh scratch directory under the system temp root.
std::filesystem::path scratch(const std::string& name)
{
    const auto dir = std::filesystem::temp_directory_path() / ("xct_faults_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::uint64_t cval(const std::string& name)
{
    return telemetry::registry().counter(name).value();
}

::testing::AssertionResult bitwise_equal(const Volume& a, const Volume& b)
{
    if (a.size() != b.size()) return ::testing::AssertionFailure() << "volume sizes differ";
    if (std::memcmp(a.span().data(), b.span().data(),
                    static_cast<std::size_t>(a.count()) * sizeof(float)) != 0)
        return ::testing::AssertionFailure() << "volumes differ bitwise";
    return ::testing::AssertionSuccess();
}

/// Fast retry policy so faulted tests do not sleep for real.
faults::RetryPolicy quick_retry(index_t attempts = 4)
{
    faults::RetryPolicy p;
    p.max_attempts = attempts;
    p.base_delay_s = 1e-6;
    p.max_delay_s = 1e-5;
    return p;
}

TEST(FaultPlanSpec, BareSiteFailsExactlyTheFirstCall)
{
    const faults::FaultPlan plan = faults::FaultPlan::parse("pfs.load");
    const auto& spec = plan.specs().at("pfs.load");
    EXPECT_EQ(spec.after, 0);
    EXPECT_EQ(spec.count, 1);
    faults::ScopedPlan install(plan);
    EXPECT_TRUE(faults::should_fail("pfs.load"));
    EXPECT_FALSE(faults::should_fail("pfs.load"));
    EXPECT_FALSE(faults::should_fail("pfs.store"));  // unconfigured site
}

TEST(FaultPlanSpec, ParseReadsAllKeysAndMultipleSites)
{
    const auto plan =
        faults::FaultPlan::parse("source.load:after=2,count=3,rank=1;sim.h2d:p=0.25", 7);
    EXPECT_EQ(plan.seed(), 7u);
    ASSERT_EQ(plan.specs().size(), 2u);
    const auto& sl = plan.specs().at("source.load");
    EXPECT_EQ(sl.after, 2);
    EXPECT_EQ(sl.count, 3);
    EXPECT_EQ(sl.rank, RankId{1});
    const auto& h2d = plan.specs().at("sim.h2d");
    EXPECT_DOUBLE_EQ(h2d.probability, 0.25);
    EXPECT_EQ(h2d.after, -1);
}

TEST(FaultPlanSpec, ParseRejectsMalformedSpecs)
{
    EXPECT_THROW(faults::FaultPlan::parse("site:frequency=2"), std::invalid_argument);
    EXPECT_THROW(faults::FaultPlan::parse("site:p"), std::invalid_argument);
    EXPECT_THROW(faults::FaultPlan::parse("site:p=maybe"), std::invalid_argument);
    EXPECT_THROW(faults::FaultPlan::parse("site:p=2.0"), std::invalid_argument);
    EXPECT_THROW(faults::FaultPlan{}.add("site", faults::FaultSpec{}), std::invalid_argument);
}

TEST(FaultPlanSpec, AfterCountWindowIsHalfOpen)
{
    faults::FaultPlan plan;
    faults::FaultSpec spec;
    spec.after = 2;
    spec.count = 2;
    plan.add("op", spec);
    faults::ScopedPlan install(plan);
    EXPECT_FALSE(faults::should_fail("op"));  // call 0
    EXPECT_FALSE(faults::should_fail("op"));  // call 1
    EXPECT_TRUE(faults::should_fail("op"));   // call 2
    EXPECT_TRUE(faults::should_fail("op"));   // call 3
    EXPECT_FALSE(faults::should_fail("op"));  // call 4 — window closed
}

TEST(FaultPlanSpec, NegativeCountNeverStopsFiring)
{
    faults::FaultPlan plan;
    faults::FaultSpec spec;
    spec.after = 1;
    spec.count = -1;
    plan.add("op", spec);
    faults::ScopedPlan install(plan);
    EXPECT_FALSE(faults::should_fail("op"));
    for (int i = 0; i < 16; ++i) EXPECT_TRUE(faults::should_fail("op"));
}

TEST(FaultPlanSpec, RankFilterSuppressesOtherRanks)
{
    // The main thread is telemetry rank 0; a spec pinned to rank 7 must
    // never fire here.
    faults::FaultPlan plan;
    faults::FaultSpec spec;
    spec.after = 0;
    spec.count = -1;
    spec.rank = RankId{7};
    plan.add("op", spec);
    faults::ScopedPlan install(plan);
    for (int i = 0; i < 8; ++i) EXPECT_FALSE(faults::should_fail("op"));
}

TEST(FaultPlanSpec, ProbabilisticTriggersAreSeedDeterministic)
{
    const auto decisions = [](std::uint64_t seed) {
        faults::FaultPlan plan(seed);
        faults::FaultSpec spec;
        spec.probability = 0.5;
        plan.add("op", spec);
        faults::ScopedPlan install(plan);  // reinstall resets call counters
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i) fired.push_back(faults::should_fail("op"));
        return fired;
    };
    const auto a = decisions(42);
    EXPECT_EQ(a, decisions(42));  // same seed -> identical firing pattern
    EXPECT_NE(a, decisions(43));
    // p=0.5 over 64 calls: both outcomes must occur (deterministic check).
    EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
    EXPECT_NE(std::count(a.begin(), a.end(), true), 64);
}

TEST(FaultPlanSpec, CheckThrowsTransientErrorAndCounts)
{
    const std::uint64_t before = cval("faults.injected");
    const std::uint64_t before_site = cval("faults.injected.op");
    faults::ScopedPlan install(faults::FaultPlan::parse("op"));
    EXPECT_THROW(faults::check("op"), faults::TransientError);  // retryable by contract
    EXPECT_NO_THROW(faults::check("op"));
    EXPECT_EQ(cval("faults.injected"), before + 1);
    EXPECT_EQ(cval("faults.injected.op"), before_site + 1);
}

TEST(Retry, BackoffDelayIsDeterministicAndBounded)
{
    const faults::RetryPolicy p;
    for (index_t attempt = 0; attempt < 12; ++attempt) {
        const double d = faults::backoff_delay(p, "op", attempt);
        EXPECT_EQ(d, faults::backoff_delay(p, "op", attempt));
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, p.max_delay_s * (1.0 + p.jitter));
    }
    // Jitter depends on the site, so distinct sites see distinct delays.
    EXPECT_NE(faults::backoff_delay(p, "a", 0), faults::backoff_delay(p, "b", 0));
}

TEST(Retry, RecoversWithinBudget)
{
    faults::ScopedPlan install(faults::FaultPlan::parse("op:after=0,count=2"));
    const std::uint64_t before = cval("faults.retry.attempts");
    const int v = faults::with_retry("op", quick_retry(4), [] {
        faults::check("op");
        return 42;
    });
    EXPECT_EQ(v, 42);
    EXPECT_EQ(cval("faults.retry.attempts"), before + 2);
}

TEST(Retry, ExhaustedBudgetRethrowsTheFault)
{
    faults::ScopedPlan install(faults::FaultPlan::parse("op:after=0,count=-1"));
    const std::uint64_t before = cval("faults.retry.exhausted");
    EXPECT_THROW(faults::with_retry("op", quick_retry(2), [] { faults::check("op"); }),
                 faults::InjectedFault);
    EXPECT_EQ(cval("faults.retry.exhausted"), before + 1);
}

TEST(Retry, NonTransientErrorsPropagateImmediately)
{
    int calls = 0;
    EXPECT_THROW(faults::with_retry("op", quick_retry(4),
                                    [&]() -> int {
                                        ++calls;
                                        throw std::runtime_error("logic error");
                                    }),
                 std::runtime_error);
    EXPECT_EQ(calls, 1);  // plain runtime_error is not retryable
}

TEST(PfsResilience, StoreRetriesAndAccountsOnlySuccess)
{
    io::Pfs pfs(scratch("pfs_retry"), 10.0, 10.0);
    pfs.set_retry(quick_retry(4));
    Volume v(Dim3{4, 4, 2});
    std::iota(v.span().begin(), v.span().end(), 0.0f);
    faults::ScopedPlan install(faults::FaultPlan::parse("pfs.store:after=0,count=2"));
    pfs.store_volume("v.xvol", v);
    EXPECT_TRUE(pfs.exists("v.xvol"));
    EXPECT_EQ(pfs.store_stats().operations, 1u);  // failed attempts not accounted
    EXPECT_TRUE(bitwise_equal(pfs.load_volume("v.xvol"), v));
}

TEST(PfsResilience, FailsLoudlyWithoutRetryPolicy)
{
    io::Pfs pfs(scratch("pfs_loud"), 10.0, 10.0);
    pfs.store_volume("v.xvol", Volume(Dim3{2, 2, 2}));
    faults::ScopedPlan install(faults::FaultPlan::parse("pfs.load"));
    EXPECT_THROW(pfs.load_volume("v.xvol"), faults::InjectedFault);
}

TEST(PfsResilience, StatsAccumulateAtomicallyAcrossThreads)
{
    io::Pfs pfs(scratch("pfs_threads"), 10.0, 10.0);
    const Volume v(Dim3{8, 8, 4});
    pfs.store_volume("probe.xvol", v);
    const std::uint64_t bytes_per_op = pfs.store_stats().bytes;
    pfs.reset_stats();

    constexpr int kThreads = 4, kOps = 8;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&, t] {
            for (int i = 0; i < kOps; ++i) {
                char name[32];
                std::snprintf(name, sizeof name, "t%d_%d.xvol", t, i);
                pfs.store_volume(name, v);
            }
        });
    for (auto& w : workers) w.join();
    EXPECT_EQ(pfs.store_stats().operations, static_cast<std::uint64_t>(kThreads * kOps));
    EXPECT_EQ(pfs.store_stats().bytes, bytes_per_op * kThreads * kOps);
    EXPECT_GT(pfs.store_stats().seconds, 0.0);
}

TEST(DeviceResilience, TransferRetryRecoversBothDirections)
{
    sim::Device dev(1u << 20);
    dev.set_retry(quick_retry(4));
    sim::DeviceBuffer buf(dev, 256);
    std::vector<float> src(256);
    std::iota(src.begin(), src.end(), 1.0f);
    faults::ScopedPlan install(
        faults::FaultPlan::parse("sim.h2d:after=0,count=1;sim.d2h:after=0,count=1"));
    buf.upload(src);
    std::vector<float> dst(256, 0.0f);
    buf.download(dst);
    EXPECT_EQ(src, dst);
}

TEST(DeviceResilience, TransferFailsLoudlyWithoutRetry)
{
    sim::Device dev(1u << 20);
    sim::DeviceBuffer buf(dev, 16);
    const std::vector<float> src(16, 1.0f);
    faults::ScopedPlan install(faults::FaultPlan::parse("sim.h2d"));
    EXPECT_THROW(buf.upload(src), faults::InjectedFault);
}

TEST(Resilience, RetriedSourceFaultsYieldBitwiseIdenticalVolume)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    PhantomSource clean_src(ph, g);
    RankConfig cfg;
    cfg.geometry = g;
    const FdkResult ref = reconstruct_fdk(cfg, clean_src);

    faults::ScopedPlan install(faults::FaultPlan::parse("source.load:after=1,count=2"));
    const std::uint64_t before = cval("faults.retry.attempts");
    PhantomSource faulted_src(ph, g);
    RankConfig rcfg = cfg;
    rcfg.retry = quick_retry(4);
    const FdkResult r = reconstruct_fdk(rcfg, faulted_src);
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
    EXPECT_GE(cval("faults.retry.attempts") - before, 2u);
}

TEST(Resilience, CheckpointStoreRoundtrip)
{
    faults::CheckpointStore store(scratch("ckpt_unit"));
    EXPECT_EQ(store.cursor(), 0);
    store.advance(3);
    EXPECT_EQ(store.cursor(), 3);
    EXPECT_FALSE(store.has_slab(SlabId{1}));
    Volume v(Dim3{5, 4, 3});
    std::iota(v.span().begin(), v.span().end(), -7.0f);
    store.save_slab(SlabId{1}, v);
    EXPECT_TRUE(store.has_slab(SlabId{1}));
    EXPECT_TRUE(bitwise_equal(store.load_slab(SlabId{1}), v));
    // A second store on the same directory sees the persisted state.
    EXPECT_EQ(faults::CheckpointStore(store.dir()).cursor(), 3);
}

TEST(Resilience, CheckpointRestartMidRunIsBitwiseIdentical)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    PhantomSource clean_src(ph, g);
    RankConfig cfg;
    cfg.geometry = g;
    cfg.batches = 8;
    const FdkResult ref = reconstruct_fdk(cfg, clean_src);

    // Run B dies at the 4th slab load (no retry) with checkpointing on;
    // sequential execution makes "slabs 0..2 completed" deterministic.
    const auto dir = scratch("ckpt_restart");
    RankConfig bcfg = cfg;
    bcfg.threaded = false;
    bcfg.checkpoint = CheckpointConfig{dir, -1};
    {
        faults::ScopedPlan install(faults::FaultPlan::parse("source.load:after=3,count=-1"));
        PhantomSource src(ph, g);
        EXPECT_THROW(reconstruct_fdk(bcfg, src), faults::InjectedFault);
    }
    EXPECT_EQ(faults::CheckpointStore(dir).cursor(), 3);

    // Run C restarts from the same directory: saved slabs replay through
    // the store stage, live computation resumes at the cursor.
    const std::uint64_t before = cval("faults.checkpoint.restored");
    RankConfig ccfg = cfg;
    ccfg.checkpoint = CheckpointConfig{dir, -1};
    PhantomSource src(ph, g);
    const FdkResult r = reconstruct_fdk(ccfg, src);
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
    EXPECT_EQ(r.stats.slabs_restored, 3);
    EXPECT_EQ(cval("faults.checkpoint.restored") - before, 3u);
}

TEST(Resilience, CheckpointRestartThroughTheFileSinkIsBitwiseIdentical)
{
    // The tools' path: slabs stream into an io::VolumeWriter.  The killed
    // run publishes nothing; the restart replays saved slabs into a fresh
    // writer and publishes a file bitwise equal to the uninterrupted run.
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    RankConfig cfg;
    cfg.geometry = g;
    cfg.batches = 8;
    PhantomSource clean_src(ph, g);
    const FdkResult ref = reconstruct_fdk(cfg, clean_src);

    const auto dir = scratch("ckpt_file_sink");
    const auto out = dir / "v.xvol";
    const Range all{0, g.vol.z};
    RankConfig bcfg = cfg;
    bcfg.threaded = false;
    bcfg.checkpoint = CheckpointConfig{dir / "ckpt", -1};
    {
        faults::ScopedPlan install(faults::FaultPlan::parse("source.load:after=3,count=-1"));
        PhantomSource src(ph, g);
        io::VolumeWriter writer(out, g.vol);
        EXPECT_THROW(reconstruct_fdk_slices(bcfg, src, all, file_storer(writer)),
                     faults::InjectedFault);
    }
    EXPECT_FALSE(std::filesystem::exists(out));
    EXPECT_FALSE(std::filesystem::exists(dir / "v.xvol.tmp"));

    RankConfig ccfg = cfg;
    ccfg.checkpoint = CheckpointConfig{dir / "ckpt", -1};
    PhantomSource src(ph, g);
    io::VolumeWriter writer(out, g.vol);
    const RankStats st = reconstruct_fdk_slices(ccfg, src, all, file_storer(writer));
    writer.commit();
    EXPECT_EQ(st.slabs_restored, 3);
    EXPECT_TRUE(bitwise_equal(io::read_volume(out), ref.volume));
}

TEST(Resilience, SimdKernelKeepsFaultPathsBitwiseReproducible)
{
    // Every bitwise_equal assertion in this suite now executes with the
    // vectorised default kernel (backend recorded below).  What makes
    // checkpoint replay and degraded re-execution bitwise safe is that the
    // kernel is deterministic run-to-run — fixed lane order, sequential
    // view accumulation — so assert that determinism directly.
    RecordProperty("simd_backend", simd::backend_name());
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    RankConfig cfg;
    cfg.geometry = g;
    cfg.batches = 8;
    PhantomSource s1(ph, g);
    const FdkResult a = reconstruct_fdk(cfg, s1);
    PhantomSource s2(ph, g);
    const FdkResult b = reconstruct_fdk(cfg, s2);
    EXPECT_TRUE(bitwise_equal(a.volume, b.volume));
}

TEST(Resilience, DegradedReduceSurvivesDropoutBitwise)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    const auto factory = [&](RankId) { return std::make_unique<PhantomSource>(ph, g); };
    const DistributedResult ref = reconstruct_distributed(cfg, factory);
    EXPECT_TRUE(ref.dead.empty());

    faults::ScopedPlan install(faults::FaultPlan::parse("rank.dropout:rank=3"));
    const std::uint64_t slabs_before = cval("faults.degraded.slabs");
    DistributedConfig dcfg = cfg;
    dcfg.degraded_reduce = true;
    const DistributedResult r = reconstruct_distributed(dcfg, factory);
    ASSERT_EQ(r.dead, (std::vector<RankId>{RankId{3}}));
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
    EXPECT_GT(cval("faults.degraded.slabs"), slabs_before);  // survivor replayed rank 3's share
}

TEST(Resilience, DegradedReduceSurvivesGroupRootDropoutBitwise)
{
    // The group root holds the reduced result; when it dies the takeover
    // must land on a survivor and the part-ordered reduce must still add
    // in original rank order.
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{1, 3};
    const auto factory = [&](RankId) { return std::make_unique<PhantomSource>(ph, g); };
    const DistributedResult ref = reconstruct_distributed(cfg, factory);

    faults::ScopedPlan install(faults::FaultPlan::parse("rank.dropout:rank=0"));
    DistributedConfig dcfg = cfg;
    dcfg.degraded_reduce = true;
    const DistributedResult r = reconstruct_distributed(dcfg, factory);
    ASSERT_EQ(r.dead, (std::vector<RankId>{RankId{0}}));
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
}

TEST(Resilience, DropoutWithoutDegradedModeAbortsTheTeam)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    faults::ScopedPlan install(faults::FaultPlan::parse("rank.dropout:rank=1"));
    const auto factory = [&](RankId) { return std::make_unique<PhantomSource>(ph, g); };
    EXPECT_THROW(reconstruct_distributed(cfg, factory), std::runtime_error);
}

TEST(Resilience, InjectedCollectiveFaultAbortsTheTeam)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{1, 2};
    faults::ScopedPlan install(faults::FaultPlan::parse("minimpi.reduce_sum:rank=1"));
    const auto factory = [&](RankId) { return std::make_unique<PhantomSource>(ph, g); };
    EXPECT_THROW(reconstruct_distributed(cfg, factory), std::runtime_error);
}

TEST(Resilience, DistributedCheckpointRestartIsBitwiseIdentical)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    const auto factory = [&](RankId) { return std::make_unique<PhantomSource>(ph, g); };
    const DistributedResult ref = reconstruct_distributed(cfg, factory);

    const auto dir = scratch("ckpt_dist");
    DistributedConfig ccfg = cfg;
    ccfg.checkpoint_dir = dir;
    {
        // Rank 2's source dies permanently part-way through; the abort
        // leaves each rank's checkpoint at whatever it had completed.
        // Sequential execution pins "whatever" to exactly 4 slabs — with
        // the threaded pipeline the load thread can outrun the first
        // reduce and abort the team before anything was checkpointed.
        faults::ScopedPlan install(
            faults::FaultPlan::parse("source.load:after=4,count=-1,rank=2"));
        DistributedConfig fcfg = ccfg;
        fcfg.threaded = false;
        EXPECT_THROW(reconstruct_distributed(fcfg, factory), std::runtime_error);
    }
    const DistributedResult r = reconstruct_distributed(ccfg, factory);
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
    index_t restored = 0;
    for (const auto& st : r.ranks) restored += st.slabs_restored;
    EXPECT_GT(restored, 0);
}

TEST(Resilience, DegradedTakeoverAfterCheckpointResumeIsBitwise)
{
    // A survivor that resumes mid-run and takes over a dead peer's share
    // must rebuild the peer's texture from the original delta bands of the
    // completed slabs.  The fp32 filter pairs rows within a band, so one
    // band of the resume slab's whole row window rounds differently.
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    const auto factory = [&](RankId) { return std::make_unique<PhantomSource>(ph, g); };
    const DistributedResult ref = reconstruct_distributed(cfg, factory);

    DistributedConfig ccfg = cfg;
    ccfg.checkpoint_dir = scratch("ckpt_takeover");
    {
        // In order, rank 2 completes 4 of group 1's 6 slabs before its
        // source dies for good.
        faults::ScopedPlan install(
            faults::FaultPlan::parse("source.load:after=4,count=-1,rank=2"));
        DistributedConfig fcfg = ccfg;
        fcfg.threaded = false;
        EXPECT_THROW(reconstruct_distributed(fcfg, factory), std::runtime_error);
    }
    // The rerun loses rank 3: rank 2 resumes at slab 4 and computes rank
    // 3's partials of slabs 4 and 5 as well.
    faults::ScopedPlan install(faults::FaultPlan::parse("rank.dropout:rank=3"));
    const std::uint64_t slabs_before = cval("faults.degraded.slabs");
    DistributedConfig dcfg = ccfg;
    dcfg.degraded_reduce = true;
    const DistributedResult r = reconstruct_distributed(dcfg, factory);
    ASSERT_EQ(r.dead, (std::vector<RankId>{RankId{3}}));
    EXPECT_EQ(r.ranks[2].slabs_restored, 4);
    EXPECT_EQ(cval("faults.degraded.slabs") - slabs_before, 2u);
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
}

// ---- integrity: corruption detection and recovery (DESIGN.md §3f) -----
//
// Every kind=corrupt plan below uses a bounded after=N,count=M window:
// the corruption point re-fires on each retry attempt, so an unbounded
// count=-1 spec would poison every re-read and exhaust the budget.

TEST(IntegrityE2E, PfsLoadCorruptionIsDetectedAndRetriedBitwise)
{
    integrity::ScopedEnable on;
    io::Pfs pfs(scratch("pfs_corrupt"), 10.0, 10.0);
    pfs.set_retry(quick_retry(4));
    Volume v(Dim3{6, 5, 4});
    std::iota(v.span().begin(), v.span().end(), 0.0f);
    pfs.store_volume("v.xvol", v);

    faults::ScopedPlan install(faults::FaultPlan::parse("pfs.load:kind=corrupt,after=0,count=1"));
    const std::uint64_t inj = cval("faults.injected.pfs.load");
    const std::uint64_t det = cval("integrity.detected.pfs.load");
    const Volume loaded = pfs.load_volume("v.xvol");
    EXPECT_TRUE(bitwise_equal(loaded, v));
    EXPECT_EQ(cval("faults.injected.pfs.load") - inj, 1u);
    EXPECT_EQ(cval("integrity.detected.pfs.load") - det, 1u);
}

TEST(IntegrityE2E, CorruptionPropagatesSilentlyWithVerificationOff)
{
    // The control experiment: with verification off the same flip lands in
    // the consumer's data and nothing throws — exactly the silent-data-
    // corruption failure mode the --integrity flag exists to close.
    integrity::ScopedEnable off(false);
    io::Pfs pfs(scratch("pfs_silent"), 10.0, 10.0);
    Volume v(Dim3{4, 4, 4});
    std::iota(v.span().begin(), v.span().end(), 1.0f);
    pfs.store_volume("v.xvol", v);

    faults::ScopedPlan install(faults::FaultPlan::parse("pfs.load:kind=corrupt,after=0,count=1"));
    const std::uint64_t det = cval("integrity.detected");
    const Volume loaded = pfs.load_volume("v.xvol");
    EXPECT_FALSE(bitwise_equal(loaded, v));  // the flip went through
    EXPECT_EQ(cval("integrity.detected"), det);
}

TEST(IntegrityE2E, SourceLoadCorruptionRecoversBitwise)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    RankConfig cfg;
    cfg.geometry = g;
    cfg.batches = 8;
    PhantomSource clean_src(ph, g);
    const FdkResult ref = reconstruct_fdk(cfg, clean_src);

    integrity::ScopedEnable on;
    faults::ScopedPlan install(
        faults::FaultPlan::parse("source.load:kind=corrupt,after=1,count=2,flips=3"));
    const std::uint64_t inj = cval("faults.injected.source.load");
    const std::uint64_t det = cval("integrity.detected.source.load");
    RankConfig rcfg = cfg;
    rcfg.retry = quick_retry(4);
    PhantomSource src(ph, g);
    const FdkResult r = reconstruct_fdk(rcfg, src);
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
    EXPECT_EQ(cval("faults.injected.source.load") - inj, 2u);
    EXPECT_EQ(cval("integrity.detected.source.load") - det, 2u);
}

TEST(IntegrityE2E, DeviceTransferCorruptionRecoversBitwise)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    RankConfig cfg;
    cfg.geometry = g;
    cfg.batches = 8;
    PhantomSource clean_src(ph, g);
    const FdkResult ref = reconstruct_fdk(cfg, clean_src);

    integrity::ScopedEnable on;
    faults::ScopedPlan install(
        faults::FaultPlan::parse("sim.h2d:kind=corrupt,after=2,count=1"));
    const std::uint64_t inj = cval("faults.injected.sim.h2d");
    const std::uint64_t det = cval("integrity.detected.sim.h2d");
    RankConfig rcfg = cfg;
    rcfg.retry = quick_retry(4);  // SlabBackprojector forwards to the device
    PhantomSource src(ph, g);
    const FdkResult r = reconstruct_fdk(rcfg, src);
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
    EXPECT_EQ(cval("faults.injected.sim.h2d") - inj, 1u);
    EXPECT_EQ(cval("integrity.detected.sim.h2d") - det, 1u);
}

TEST(IntegrityE2E, CheckpointRestoreCorruptionIsReReadBitwise)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    RankConfig cfg;
    cfg.geometry = g;
    cfg.batches = 8;
    PhantomSource clean_src(ph, g);
    const FdkResult ref = reconstruct_fdk(cfg, clean_src);

    // Run B dies at the 4th slab with checkpointing on (cursor = 3).
    const auto dir = scratch("ckpt_corrupt");
    RankConfig bcfg = cfg;
    bcfg.threaded = false;
    bcfg.checkpoint = CheckpointConfig{dir, -1};
    {
        faults::ScopedPlan install(faults::FaultPlan::parse("source.load:after=3,count=-1"));
        PhantomSource src(ph, g);
        EXPECT_THROW(reconstruct_fdk(bcfg, src), faults::InjectedFault);
    }

    // Run C restores under a bit-flip on one restore read: detection plus
    // a retry re-read of the (intact) file keeps the replay bitwise.
    integrity::ScopedEnable on;
    faults::ScopedPlan install(
        faults::FaultPlan::parse("checkpoint.load:kind=corrupt,after=1,count=1"));
    const std::uint64_t inj = cval("faults.injected.checkpoint.load");
    const std::uint64_t det = cval("integrity.detected.checkpoint.load");
    RankConfig ccfg = cfg;
    ccfg.checkpoint = CheckpointConfig{dir, -1};
    ccfg.retry = quick_retry(4);
    PhantomSource src(ph, g);
    const FdkResult r = reconstruct_fdk(ccfg, src);
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
    EXPECT_EQ(r.stats.slabs_restored, 3);
    EXPECT_EQ(cval("faults.injected.checkpoint.load") - inj, 1u);
    EXPECT_EQ(cval("integrity.detected.checkpoint.load") - det, 1u);
}

TEST(IntegrityE2E, ReduceCorruptionIsReCopiedBitwise)
{
    // Corruption in a reduce contribution is repaired *inside* the
    // collective: the root re-copies from the sender's still-intact slot,
    // no rank-level retry involved.
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    const auto factory = [&](RankId) { return std::make_unique<PhantomSource>(ph, g); };
    const DistributedResult ref = reconstruct_distributed(cfg, factory);

    integrity::ScopedEnable on;
    faults::ScopedPlan install(
        faults::FaultPlan::parse("minimpi.reduce_sum:kind=corrupt,after=0,count=1"));
    const std::uint64_t inj = cval("faults.injected.minimpi.reduce_sum");
    const std::uint64_t det = cval("integrity.detected.minimpi.reduce_sum");
    const DistributedResult r = reconstruct_distributed(cfg, factory);
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
    EXPECT_GT(cval("faults.injected.minimpi.reduce_sum"), inj);
    EXPECT_EQ(cval("faults.injected.minimpi.reduce_sum") - inj,
              cval("integrity.detected.minimpi.reduce_sum") - det);
}

TEST(IntegrityE2E, DegradedReduceCorruptionIsReCopiedBitwise)
{
    // Dropout and corruption together: rank 3 dies, a survivor takes over
    // its share, and the keyed reduce catches a flip in one contribution.
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    const auto factory = [&](RankId) { return std::make_unique<PhantomSource>(ph, g); };
    const DistributedResult ref = reconstruct_distributed(cfg, factory);

    integrity::ScopedEnable on;
    faults::ScopedPlan install(faults::FaultPlan::parse(
        "rank.dropout:rank=3;minimpi.reduce_sum_parts:kind=corrupt,after=0,count=1"));
    const std::uint64_t inj = cval("faults.injected.minimpi.reduce_sum_parts");
    const std::uint64_t det = cval("integrity.detected.minimpi.reduce_sum_parts");
    DistributedConfig dcfg = cfg;
    dcfg.degraded_reduce = true;
    const DistributedResult r = reconstruct_distributed(dcfg, factory);
    ASSERT_EQ(r.dead, (std::vector<RankId>{RankId{3}}));
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
    EXPECT_GT(cval("faults.injected.minimpi.reduce_sum_parts"), inj);
    EXPECT_EQ(cval("faults.injected.minimpi.reduce_sum_parts") - inj,
              cval("integrity.detected.minimpi.reduce_sum_parts") - det);
}

TEST(IntegrityE2E, HierarchicalReduceCorruptionIsReCopiedBitwise)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{1, 4};
    cfg.ranks_per_node = 2;
    const auto factory = [&](RankId) { return std::make_unique<PhantomSource>(ph, g); };
    const DistributedResult ref = reconstruct_distributed(cfg, factory);

    integrity::ScopedEnable on;
    faults::ScopedPlan install(faults::FaultPlan::parse(
        "minimpi.reduce_sum_hierarchical:kind=corrupt,after=0,count=1"));
    const std::uint64_t inj = cval("faults.injected.minimpi.reduce_sum_hierarchical");
    const std::uint64_t det = cval("integrity.detected.minimpi.reduce_sum_hierarchical");
    const DistributedResult r = reconstruct_distributed(cfg, factory);
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
    EXPECT_GT(cval("faults.injected.minimpi.reduce_sum_hierarchical"), inj);
    EXPECT_EQ(cval("faults.injected.minimpi.reduce_sum_hierarchical") - inj,
              cval("integrity.detected.minimpi.reduce_sum_hierarchical") - det);
}

TEST(IntegrityE2E, CleanRunWithVerificationOnDetectsNothingAndMatchesBitwise)
{
    // Zero-false-positive guarantee: an unfaulted run with verification on
    // detects nothing and produces the same bits as one with it off.
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    const auto factory = [&](RankId) { return std::make_unique<PhantomSource>(ph, g); };
    const DistributedResult ref = reconstruct_distributed(cfg, factory);

    integrity::ScopedEnable on;
    const std::uint64_t det = cval("integrity.detected");
    const std::uint64_t ver = cval("integrity.verified");
    const DistributedResult r = reconstruct_distributed(cfg, factory);
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
    EXPECT_EQ(cval("integrity.detected"), det);     // no false positives
    EXPECT_GT(cval("integrity.verified"), ver);     // ...while actually checking
}

TEST(IntegrityE2E, AggressiveMultiSiteBitFlipRunDetectsEverything)
{
    // The headline experiment: corruption injected at the source reads,
    // the device uploads and the reduce of a distributed run — every flip
    // detected (injected == detected per site) and the final volume
    // bitwise-identical to the unfaulted reference.
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    const auto factory = [&](RankId) { return std::make_unique<PhantomSource>(ph, g); };
    const DistributedResult ref = reconstruct_distributed(cfg, factory);

    integrity::ScopedEnable on;
    faults::ScopedPlan install(faults::FaultPlan::parse(
        "source.load:kind=corrupt,after=2,count=2,flips=3;"
        "sim.h2d:kind=corrupt,after=2,count=1;"
        "minimpi.reduce_sum:kind=corrupt,after=1,count=1"));
    const char* sites[] = {"source.load", "sim.h2d", "minimpi.reduce_sum"};
    std::uint64_t inj[3], det[3];
    for (int i = 0; i < 3; ++i) {
        inj[i] = cval(std::string("faults.injected.") + sites[i]);
        det[i] = cval(std::string("integrity.detected.") + sites[i]);
    }
    DistributedConfig fcfg = cfg;
    fcfg.retry = quick_retry(6);
    const DistributedResult r = reconstruct_distributed(fcfg, factory);
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
    for (int i = 0; i < 3; ++i) {
        const std::uint64_t injected = cval(std::string("faults.injected.") + sites[i]) - inj[i];
        const std::uint64_t detected = cval(std::string("integrity.detected.") + sites[i]) - det[i];
        EXPECT_GT(injected, 0u) << sites[i];
        EXPECT_EQ(injected, detected) << sites[i];
    }
}

// ---- checkpoint damage: truncation and bit rot -------------------------

TEST(Resilience, TruncatedCheckpointSlabIsRecomputedBitwise)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    RankConfig cfg;
    cfg.geometry = g;
    cfg.batches = 8;
    PhantomSource clean_src(ph, g);
    const FdkResult ref = reconstruct_fdk(cfg, clean_src);

    const auto dir = scratch("ckpt_trunc");
    RankConfig bcfg = cfg;
    bcfg.threaded = false;
    bcfg.checkpoint = CheckpointConfig{dir, -1};
    {
        faults::ScopedPlan install(faults::FaultPlan::parse("source.load:after=3,count=-1"));
        PhantomSource src(ph, g);
        EXPECT_THROW(reconstruct_fdk(bcfg, src), faults::InjectedFault);
    }
    faults::CheckpointStore store(dir);
    ASSERT_EQ(store.cursor(), 3);

    // A crash mid-write (simulated by truncating slab 1) must cap the
    // resume point at the damage even though the raw cursor still says 3.
    const auto slab1 = dir / "slab_1.xckp";
    ASSERT_TRUE(std::filesystem::exists(slab1));
    std::filesystem::resize_file(slab1, std::filesystem::file_size(slab1) / 2);
    EXPECT_EQ(store.cursor(), 3);
    EXPECT_EQ(store.validated_cursor(), 1);

    const std::uint64_t restored_before = cval("faults.checkpoint.restored");
    RankConfig ccfg = cfg;
    ccfg.checkpoint = CheckpointConfig{dir, -1};
    PhantomSource src(ph, g);
    const FdkResult r = reconstruct_fdk(ccfg, src);
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
    EXPECT_EQ(r.stats.slabs_restored, 1);  // slab 0 replayed; 1+ recomputed
    EXPECT_EQ(cval("faults.checkpoint.restored") - restored_before, 1u);
}

TEST(Resilience, BitFlippedCheckpointSlabLowersValidatedCursor)
{
    faults::CheckpointStore store(scratch("ckpt_flip"));
    Volume v(Dim3{5, 4, 3});
    std::iota(v.span().begin(), v.span().end(), -7.0f);
    store.save_slab(SlabId{0}, v);
    store.save_slab(SlabId{1}, v);
    store.advance(2);
    EXPECT_EQ(store.validated_cursor(), 2);

    // Flip one payload bit of slab 0 on disk: structurally the file still
    // parses, only the digest can tell.
    const auto path = store.dir() / "slab_0.xckp";
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(-1, std::ios::end);
    char c = 0;
    f.get(c);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0x10));
    f.close();

    EXPECT_EQ(store.cursor(), 2);
    EXPECT_EQ(store.validated_cursor(), 0);
}

// ---- stalls: watchdog-supervised recovery ------------------------------

TEST(Resilience, StallPastWatchdogDeadlineIsTakenOverBitwise)
{
    // Rank 3 wedges at startup (kind=stall, 3 s).  The watchdog's health
    // probe converts the overrun into a transient fault, the rank is
    // declared dead, and degraded reduce takes over its view share — the
    // same recovery as a fail-stop dropout, now reachable from a stall.
    //
    // The same deadline supervises every reduce, and the survivor's reduce
    // includes the takeover replay: on a loaded 4-core host a clean reduce
    // measured up to 0.34 s.  A 1.5 s deadline keeps > 4x margin over
    // that, and the 3 s stall stays 2x past the deadline.
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    const auto factory = [&](RankId) { return std::make_unique<PhantomSource>(ph, g); };
    const DistributedResult ref = reconstruct_distributed(cfg, factory);

    faults::ScopedPlan install(
        faults::FaultPlan::parse("rank.stall:kind=stall,delay=3.0,rank=3"));
    const std::uint64_t expired = cval("watchdog.expired.health_probe");
    DistributedConfig dcfg = cfg;
    dcfg.degraded_reduce = true;
    dcfg.watchdog_timeout_s = 1.5;
    const DistributedResult r = reconstruct_distributed(dcfg, factory);
    ASSERT_EQ(r.dead, (std::vector<RankId>{RankId{3}}));
    EXPECT_TRUE(bitwise_equal(r.volume, ref.volume));
    EXPECT_GE(cval("watchdog.expired.health_probe") - expired, 1u);
}

}  // namespace
}  // namespace xct::recon
