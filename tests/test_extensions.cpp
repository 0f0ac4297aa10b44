// Extension-feature tests: ROI reconstruction, Poisson noise, slab
// stitching and the shared-Pfs source factory.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "io/raw_io.hpp"
#include "io/stitch.hpp"
#include "recon/distributed.hpp"
#include "recon/fdk.hpp"

namespace xct::recon {
namespace {

CbctGeometry geo(index_t n = 32, index_t np = 48)
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

TEST(Roi, SliceRangeMatchesFullReconstruction)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * static_cast<double>(g.vol.x) / 2.4);

    PhantomSource full_src(ph, g);
    RankConfig cfg;
    cfg.geometry = g;
    const FdkResult full = reconstruct_fdk(cfg, full_src);

    PhantomSource roi_src(ph, g);
    RankConfig cfg2;
    cfg2.geometry = g;
    cfg2.batches = 3;
    const Range roi{10, 22};
    Volume part(Dim3{g.vol.x, g.vol.y, roi.length()});
    reconstruct_fdk_slices(cfg2, roi_src, roi, volume_storer(part, roi.lo));
    for (index_t k = 0; k < roi.length(); ++k)
        for (index_t j = 0; j < g.vol.y; ++j)
            for (index_t i = 0; i < g.vol.x; ++i)
                ASSERT_NEAR(part.at(i, j, k), full.volume.at(i, j, roi.lo + k), 1e-5f);
}

TEST(Roi, FileSinkMatchesTheInMemoryRoiBitwise)
{
    // xct_recon --slices writes through file_storer with the ROI's first
    // slice as the file's slice 0.
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * static_cast<double>(g.vol.x) / 2.4);
    RankConfig cfg;
    cfg.geometry = g;
    cfg.batches = 3;
    const Range roi{10, 22};
    PhantomSource mem_src(ph, g);
    Volume mem(Dim3{g.vol.x, g.vol.y, roi.length()});
    reconstruct_fdk_slices(cfg, mem_src, roi, volume_storer(mem, roi.lo));

    const auto path = std::filesystem::temp_directory_path() /
                      ("xct_roi_file_sink_" + std::to_string(::getpid()) + ".xvol");
    {
        PhantomSource file_src(ph, g);
        io::VolumeWriter writer(path, Dim3{g.vol.x, g.vol.y, roi.length()});
        reconstruct_fdk_slices(cfg, file_src, roi, file_storer(writer, roi.lo));
        writer.commit();
    }
    const Volume file = io::read_volume(path);
    ASSERT_EQ(file.size(), mem.size());
    EXPECT_EQ(std::memcmp(file.span().data(), mem.span().data(), mem.span().size_bytes()), 0);
    std::filesystem::remove(path);
}

TEST(Roi, LoadsOnlyTheRoiBands)
{
    // The decomposition makes ROI cost proportional to the ROI: the H2D
    // traffic of a 4-slice ROI is far below the full reconstruction's.
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * static_cast<double>(g.vol.x) / 2.4);

    PhantomSource s1(ph, g);
    RankConfig cfg;
    cfg.geometry = g;
    const FdkResult full = reconstruct_fdk(cfg, s1);

    PhantomSource s2(ph, g);
    RankConfig cfg2;
    cfg2.geometry = g;
    cfg2.batches = 2;
    Volume part(Dim3{g.vol.x, g.vol.y, 4});
    const RankStats st = reconstruct_fdk_slices(cfg2, s2, Range{14, 18}, volume_storer(part, 14));
    EXPECT_LT(st.h2d.bytes, full.stats.h2d.bytes / 2);
}

TEST(Roi, RejectsBadRanges)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(4.0);
    PhantomSource src(ph, g);
    RankConfig cfg;
    cfg.geometry = g;
    Volume sink(g.vol);
    EXPECT_THROW(reconstruct_fdk_slices(cfg, src, Range{5, 5}, volume_storer(sink)),
                 std::invalid_argument);
    EXPECT_THROW(reconstruct_fdk_slices(cfg, src, Range{0, g.vol.z + 1}, volume_storer(sink)),
                 std::invalid_argument);
}

TEST(PoissonNoise, RequiresCountEmission)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(4.0);
    EXPECT_THROW(PhantomSource(ph, g, std::nullopt, PoissonNoise{1e4, 7}), std::invalid_argument);
}

TEST(PoissonNoise, RealisationIsBandSplitInvariant)
{
    // The same pixel must get the same noise no matter how the load is
    // split — otherwise distributed reconstructions would differ.
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 13.0);
    const BeerLawScalar cal{0.0f, 65536.0f};
    PhantomSource a(ph, g, cal, PoissonNoise{1e4, 99});
    PhantomSource b(ph, g, cal, PoissonNoise{1e4, 99});

    const ProjectionStack whole = a.load(Range{0, 8}, Range{0, g.nv});
    const ProjectionStack upper = b.load(Range{0, 8}, Range{0, g.nv / 2});
    const ProjectionStack lower = b.load(Range{0, 8}, Range{g.nv / 2, g.nv});
    for (index_t s = 0; s < 8; ++s)
        for (index_t v = 0; v < g.nv; ++v)
            for (index_t u = 0; u < g.nu; ++u) {
                const float want = v < g.nv / 2 ? upper.at(s, v, u) : lower.at(s, v, u);
                ASSERT_FLOAT_EQ(whole.at(s, v, u), want);
            }
}

TEST(PoissonNoise, MorePhotonsMeansLessNoise)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * 13.0);
    const BeerLawScalar cal{0.0f, 65536.0f};
    PhantomSource clean(ph, g, cal);
    PhantomSource noisy_lo(ph, g, cal, PoissonNoise{1e3, 5});
    PhantomSource noisy_hi(ph, g, cal, PoissonNoise{1e6, 5});

    const ProjectionStack ref = clean.load(Range{0, 4}, Range{0, g.nv});
    const ProjectionStack lo = noisy_lo.load(Range{0, 4}, Range{0, g.nv});
    const ProjectionStack hi = noisy_hi.load(Range{0, 4}, Range{0, g.nv});
    auto dev = [&](const ProjectionStack& p) {
        double acc = 0.0;
        for (index_t i = 0; i < p.count(); ++i) {
            const double d = static_cast<double>(p.span()[static_cast<std::size_t>(i)]) -
                             static_cast<double>(ref.span()[static_cast<std::size_t>(i)]);
            acc += d * d;
        }
        return acc;
    };
    EXPECT_GT(dev(lo), 10.0 * dev(hi));
    EXPECT_GT(dev(hi), 0.0);
}

TEST(PoissonNoise, NoisyReconstructionStillRecovers)
{
    const CbctGeometry g = geo(32, 64);
    const auto ph = phantom::shepp_logan_3d(g.dx * static_cast<double>(g.vol.x) / 2.4);
    const BeerLawScalar cal{0.0f, 65536.0f};
    PhantomSource src(ph, g, cal, PoissonNoise{1e5, 3});
    RankConfig cfg;
    cfg.geometry = g;
    cfg.beer = cal;
    const FdkResult r = reconstruct_fdk(cfg, src);
    const Volume truth = phantom::voxelize(ph, g);
    EXPECT_LT(rmse_flat(r.volume, truth, 4), 0.08);  // noisy but recognisable
}

TEST(Stitch, RoundTripsDistributedSlabs)
{
    const CbctGeometry g = geo(24, 36);
    const auto ph = phantom::shepp_logan_3d(g.dx * static_cast<double>(g.vol.x) / 2.4);
    const auto dir = std::filesystem::temp_directory_path() / "xct_stitch_test";
    std::filesystem::remove_all(dir);
    io::Pfs pfs(dir, 10.0, 10.0);

    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{3, 1};
    cfg.batches = 2;
    const auto factory = [&](RankId) { return std::make_unique<PhantomSource>(ph, g); };
    const DistributedResult r = reconstruct_distributed(cfg, factory, &pfs);

    const Volume stitched = io::stitch_slabs(dir);
    ASSERT_EQ(stitched.size(), r.volume.size());
    for (index_t i = 0; i < stitched.count(); ++i)
        ASSERT_FLOAT_EQ(stitched.span()[static_cast<std::size_t>(i)],
                        r.volume.span()[static_cast<std::size_t>(i)]);
    std::filesystem::remove_all(dir);
}

TEST(Stitch, DetectsGapsAndOverlaps)
{
    const auto dir = std::filesystem::temp_directory_path() / "xct_stitch_bad";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Volume slab(Dim3{4, 4, 4});
    io::write_volume(dir / "slab_0_4.xvol", slab);
    io::write_volume(dir / "slab_8_12.xvol", slab);  // gap at [4, 8)
    EXPECT_THROW(io::stitch_slabs(dir), std::invalid_argument);
    io::write_volume(dir / "slab_2_6.xvol", slab);  // overlap with [0, 4)
    EXPECT_THROW(io::discover_slabs(dir), std::invalid_argument);
    std::filesystem::remove_all(dir);
}

TEST(Stitch, IgnoresForeignFiles)
{
    const auto dir = std::filesystem::temp_directory_path() / "xct_stitch_mixed";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Volume slab(Dim3{4, 4, 3}, 2.0f);
    io::write_volume(dir / "slab_0_3.xvol", slab);
    io::write_volume(dir / "other.xvol", slab);
    {
        std::ofstream junk(dir / "notes.txt");
        junk << "hi";
    }
    const auto slabs = io::discover_slabs(dir);
    ASSERT_EQ(slabs.size(), 1u);
    const Volume v = io::stitch_slabs(dir);
    EXPECT_EQ(v.size().z, 3);
    std::filesystem::remove_all(dir);
}

TEST(SharedPfsFactory, DistributedMatchesReference)
{
    const CbctGeometry g = geo(24, 36);
    const auto ph = phantom::shepp_logan_3d(g.dx * static_cast<double>(g.vol.x) / 2.4);
    PhantomSource ref_src(ph, g);
    RankConfig one;
    one.geometry = g;
    const FdkResult ref = reconstruct_fdk(one, ref_src);

    const auto dir = std::filesystem::temp_directory_path() / "xct_shared_pfs";
    std::filesystem::remove_all(dir);
    io::Pfs pfs(dir, 2.0, 2.0);
    {
        PhantomSource gen(ph, g);
        pfs.store_stack("p.xstk", gen.load(Range{0, g.num_proj}, Range{0, g.nv}));
    }
    DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    const DistributedResult r =
        reconstruct_distributed(cfg, make_shared_pfs_factory(pfs, "p.xstk"));
    for (index_t i = 0; i < ref.volume.count(); ++i)
        ASSERT_NEAR(r.volume.span()[static_cast<std::size_t>(i)],
                    ref.volume.span()[static_cast<std::size_t>(i)], 2e-5f);
    std::filesystem::remove_all(dir);
}

TEST(ViewDirSource, RoundTripsAndReconstructs)
{
    const CbctGeometry g = geo(24, 36);
    const auto ph = phantom::shepp_logan_3d(g.dx * static_cast<double>(g.vol.x) / 2.4);
    const auto dir = std::filesystem::temp_directory_path() / "xct_viewdir_test";
    std::filesystem::remove_all(dir);
    {
        PhantomSource gen(ph, g);
        io::export_views(dir, gen.load(Range{0, g.num_proj}, Range{0, g.nv}));
    }
    EXPECT_EQ(io::count_views(dir), g.num_proj);

    // Partial loads agree with regeneration.
    PhantomSource gen2(ph, g);
    const ProjectionStack want = gen2.load(Range{3, 7}, Range{5, 20});
    ViewDirSource src(dir);
    const ProjectionStack got = src.load(Range{3, 7}, Range{5, 20});
    for (index_t s = 0; s < 4; ++s)
        for (index_t v = 5; v < 20; ++v)
            for (index_t u = 0; u < g.nu; ++u) ASSERT_FLOAT_EQ(got.at(s, v, u), want.at(s, v, u));

    // End-to-end reconstruction from the view directory.
    PhantomSource ref_src(ph, g);
    RankConfig one;
    one.geometry = g;
    const FdkResult ref = reconstruct_fdk(one, ref_src);
    ViewDirSource file_src(dir);
    RankConfig two;
    two.geometry = g;
    const FdkResult r = reconstruct_fdk(two, file_src);
    for (index_t i = 0; i < ref.volume.count(); ++i)
        ASSERT_NEAR(r.volume.span()[static_cast<std::size_t>(i)],
                    ref.volume.span()[static_cast<std::size_t>(i)], 1e-5f);
    std::filesystem::remove_all(dir);
}

TEST(ViewDirSource, RejectsEmptyDirectory)
{
    const auto dir = std::filesystem::temp_directory_path() / "xct_viewdir_empty";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    EXPECT_THROW(ViewDirSource{dir}, std::invalid_argument);
    std::filesystem::remove_all(dir);
}

TEST(SharedPfsFactory, RejectsMissingStack)
{
    const auto dir = std::filesystem::temp_directory_path() / "xct_shared_pfs_missing";
    std::filesystem::remove_all(dir);
    io::Pfs pfs(dir, 1.0, 1.0);
    EXPECT_THROW(make_shared_pfs_factory(pfs, "nope.xstk"), std::invalid_argument);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xct::recon
