// Extension-feature tests: ROI reconstruction and the shared-Pfs source
// factory.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "io/raw_io.hpp"
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
