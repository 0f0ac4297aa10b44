// End-to-end FDK reconstruction tests (single node): quality against the
// analytic phantom, out-of-core == in-core, threaded == sequential, and
// the preprocessing (raw counts) path.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

#include "core/names.hpp"
#include "io/datasets.hpp"
#include "recon/fdk.hpp"
#include "telemetry/flight.hpp"

namespace xct::recon {
namespace {

CbctGeometry geo(index_t n = 48, index_t np = 120)
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = np;
    g.nu = 2 * n;      // detector oversamples the volume laterally
    g.nv = 2 * n;
    g.du = 0.4;
    g.dv = 0.4;
    g.vol = {n, n, n};
    // Volume inscribed well inside the FOV so nothing clips.
    g.dx = g.dy = g.dz =
        CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x) * 0.7;
    return g;
}

TEST(Fdk, ReconstructsSheppLoganCentralSlice)
{
    const CbctGeometry g = geo();
    const double radius = g.dx * static_cast<double>(g.vol.x) / 2.4;
    const auto phantom = phantom::shepp_logan_3d(radius);
    const FdkResult r = reconstruct_fdk(g, phantom);
    const Volume truth = phantom::voxelize(phantom, g);

    // FDK is exact in the mid-plane (continuum limit).  Away from density
    // discontinuities — where any band-limited reconstruction rings — the
    // error must be a few percent of the unit contrast; the raw RMSE
    // (ringing included) stays bounded too.
    const index_t mid = g.vol.z / 2;
    EXPECT_LT(rmse_flat(r.volume, truth, 4), 0.05) << "flat-region RMSE too high";
    double acc = 0.0;
    index_t cnt = 0;
    for (index_t j = 4; j < g.vol.y - 4; ++j)
        for (index_t i = 4; i < g.vol.x - 4; ++i) {
            const double e = static_cast<double>(r.volume.at(i, j, mid)) -
                             static_cast<double>(truth.at(i, j, mid));
            acc += e * e;
            ++cnt;
        }
    const double slice_rmse = std::sqrt(acc / static_cast<double>(cnt));
    EXPECT_LT(slice_rmse, 0.15) << "central-slice RMSE too high";

    // Absolute level: the skull interior (density 0.2) is recovered.
    EXPECT_NEAR(r.volume.at(g.vol.x / 2, g.vol.y / 2, mid), 0.2f, 0.05f);
}

TEST(Fdk, SequentialAndThreadedPipelinesAgreeBitwise)
{
    const CbctGeometry g = geo(32, 60);
    const auto phantom = phantom::shepp_logan_3d(g.dx * 13.0);
    PhantomSource src_a(phantom, g);
    PhantomSource src_b(phantom, g);

    RankConfig a;
    a.geometry = g;
    a.threaded = false;
    RankConfig b;
    b.geometry = g;
    b.threaded = true;

    const FdkResult ra = reconstruct_fdk(a, src_a);
    const FdkResult rb = reconstruct_fdk(b, src_b);
    for (index_t i = 0; i < ra.volume.count(); ++i)
        ASSERT_EQ(ra.volume.span()[static_cast<std::size_t>(i)],
                  rb.volume.span()[static_cast<std::size_t>(i)]);
}

TEST(Fdk, OutOfCoreMatchesInCore)
{
    // The headline capability: a device too small for the projections+
    // volume still reconstructs, streaming rows through the circular
    // texture (Table 5's 40963-on-16GB row, scaled down).
    const CbctGeometry g = geo(32, 60);
    const auto phantom = phantom::shepp_logan_3d(g.dx * 13.0);

    PhantomSource src_big(phantom, g);
    RankConfig big;
    big.geometry = g;
    big.device_capacity = 1u << 30;
    big.batches = 1;  // whole volume in one batch: everything resident
    const FdkResult in_core = reconstruct_fdk(big, src_big);

    PhantomSource src_small(phantom, g);
    RankConfig small;
    small.geometry = g;
    small.batches = 16;  // 2-slice slabs
    // Texture for the worst slab + slab buffer only; far below full size.
    const std::size_t full_bytes =
        static_cast<std::size_t>(g.num_proj * g.nv * g.nu + g.vol.count()) * sizeof(float);
    small.device_capacity = full_bytes / 3;
    const FdkResult out_of_core = reconstruct_fdk(small, src_small);

    for (index_t i = 0; i < in_core.volume.count(); ++i)
        ASSERT_NEAR(out_of_core.volume.span()[static_cast<std::size_t>(i)],
                    in_core.volume.span()[static_cast<std::size_t>(i)], 1e-5f);
}

TEST(Fdk, DeviceTooSmallForOneSlabThrows)
{
    const CbctGeometry g = geo(32, 60);
    const auto phantom = phantom::shepp_logan_3d(g.dx * 13.0);
    PhantomSource src(phantom, g);
    RankConfig cfg;
    cfg.geometry = g;
    cfg.device_capacity = 1024;  // absurd: not even one texture row
    EXPECT_THROW(reconstruct_fdk(cfg, src), sim::DeviceOutOfMemory);
}

TEST(Fdk, RawCountPathMatchesLineIntegralPath)
{
    const CbctGeometry g = geo(24, 48);
    const auto phantom = phantom::shepp_logan_3d(g.dx * 10.0);
    const BeerLawScalar cal{100.0f, 60000.0f};

    PhantomSource ideal(phantom, g);
    RankConfig cfg;
    cfg.geometry = g;
    const FdkResult a = reconstruct_fdk(cfg, ideal);

    PhantomSource counts(phantom, g, cal);
    RankConfig cfg2;
    cfg2.geometry = g;
    cfg2.beer = cal;
    const FdkResult b = reconstruct_fdk(cfg2, counts);

    // Eq. 1 then its inverse is identity up to float math.
    EXPECT_LT(rmse(a.volume, b.volume), 2e-4);
}

TEST(Fdk, HannWindowSmoothsReconstruction)
{
    const CbctGeometry g = geo(32, 60);
    const auto phantom = phantom::shepp_logan_3d(g.dx * 13.0);
    const FdkResult sharp = reconstruct_fdk(g, phantom, filter::Window::RamLak);
    const FdkResult smooth = reconstruct_fdk(g, phantom, filter::Window::Hann);

    // Total variation along X of the central slice drops with apodisation.
    auto tv = [&](const Volume& v) {
        double t = 0.0;
        const index_t mid = g.vol.z / 2;
        for (index_t j = 0; j < g.vol.y; ++j)
            for (index_t i = 0; i + 1 < g.vol.x; ++i)
                t += std::abs(v.at(i + 1, j, mid) - v.at(i, j, mid));
        return t;
    };
    EXPECT_LT(tv(smooth.volume), tv(sharp.volume));
}

TEST(Fdk, StatsReportEveryPipelineStage)
{
    const CbctGeometry g = geo(24, 32);
    const auto phantom = phantom::shepp_logan_3d(g.dx * 10.0);
    PhantomSource src(phantom, g);
    RankConfig cfg;
    cfg.geometry = g;
    const double t0 = telemetry::flight::wall_now();
    const FdkResult r = reconstruct_fdk(cfg, src);
    EXPECT_GT(r.stats.t_load, 0.0);
    EXPECT_GT(r.stats.t_filter, 0.0);
    EXPECT_GT(r.stats.t_prefetch, 0.0);
    EXPECT_GT(r.stats.t_bp, 0.0);
    EXPECT_GT(r.stats.t_store, 0.0);
    EXPECT_GT(r.stats.wall, 0.0);
    EXPECT_GT(r.stats.h2d.bytes, 0u);
    EXPECT_GT(r.stats.d2h.bytes, 0u);
    // The stage spans themselves are in the flight rings.
    std::set<std::string> stages;
    for (const auto& e : telemetry::flight::snapshot(t0))
        if (std::string_view(e.cat) == names::kCatPipeline) stages.insert(e.name);
    EXPECT_EQ(stages,
              (std::set<std::string>{"load", "filter", "prefetch", "bp", "mpi", "store"}));
}

TEST(RankStats, OverlapFactorMeasuresConcurrency)
{
    RankStats st;
    EXPECT_DOUBLE_EQ(st.overlap_factor(), 0.0);
    // Two stages fully overlapped: busy 2.0 over makespan 1.0.
    st.t_load = 1.0;
    st.t_bp = 1.0;
    st.wall = 1.0;
    EXPECT_DOUBLE_EQ(st.overlap_factor(), 2.0);
}

TEST(Fdk, ProjectionsMoveHostToDeviceExactlyOnce)
{
    // The differential-update guarantee (Sec. 3.1.3): total H2D projection
    // traffic equals the union of row bands, not Nc times it.
    const CbctGeometry g = geo(32, 40);
    const auto phantom = phantom::shepp_logan_3d(g.dx * 13.0);
    PhantomSource src(phantom, g);
    RankConfig cfg;
    cfg.geometry = g;
    cfg.batches = 8;
    const FdkResult r = reconstruct_fdk(cfg, src);

    const auto plans = plan_slabs(g, Range{0, g.vol.z}, (g.vol.z + 7) / 8);
    index_t delta_rows = 0;
    for (const auto& p : plans) delta_rows += p.delta.length();
    const std::uint64_t expect = static_cast<std::uint64_t>(delta_rows) *
                                 static_cast<std::uint64_t>(g.num_proj * g.nu) * sizeof(float);
    EXPECT_EQ(r.stats.h2d.bytes, expect);
}

TEST(Fdk, BatchCountDoesNotChangeResults)
{
    const CbctGeometry g = geo(24, 40);
    const auto phantom = phantom::shepp_logan_3d(g.dx * 10.0);
    Volume first;
    bool have_first = false;
    for (index_t nc : {1, 2, 3, 8, 24}) {
        PhantomSource src(phantom, g);
        RankConfig cfg;
        cfg.geometry = g;
        cfg.batches = nc;
        const FdkResult r = reconstruct_fdk(cfg, src);
        if (!have_first) {
            first = r.volume;
            have_first = true;
            continue;
        }
        for (index_t i = 0; i < first.count(); ++i)
            ASSERT_NEAR(r.volume.span()[static_cast<std::size_t>(i)],
                        first.span()[static_cast<std::size_t>(i)], 1e-5f)
                << "Nc=" << nc;
    }
}

TEST(Fdk, RmseHelperBasics)
{
    Volume a(Dim3{4, 4, 4}, 1.0f);
    Volume b(Dim3{4, 4, 4}, 1.0f);
    EXPECT_DOUBLE_EQ(rmse(a, b), 0.0);
    b.at(0, 0, 0) = 2.0f;
    EXPECT_GT(rmse(a, b), 0.0);
    EXPECT_DOUBLE_EQ(rmse(a, b, 1), 0.0);  // margin excludes the corner
    Volume c(Dim3{2, 2, 2});
    EXPECT_THROW(rmse(a, c), std::invalid_argument);
    EXPECT_THROW(rmse(a, b, 2), std::invalid_argument);
}

TEST(Fdk, PaperDatasetGeometryReconstructs)
{
    // tomo_00030's real geometry (Table 4 offsets included) at 1/16
    // resolution: the pipeline must handle non-square detectors and the
    // sigma_u = -10 px offset without artefacts blowing up the RMSE.
    const io::Dataset d = io::dataset_by_name("tomo_00030").scaled(16.0).with_volume(32);
    const CbctGeometry& g = d.geometry;
    const double radius = g.dx * static_cast<double>(g.vol.x) / 2.6;
    const auto phantom = phantom::shepp_logan_3d(radius);
    const FdkResult r = reconstruct_fdk(g, phantom);
    const Volume truth = phantom::voxelize(phantom, g);
    EXPECT_LT(rmse_flat(r.volume, truth, 6), 0.08);
}

}  // namespace
}  // namespace xct::recon
