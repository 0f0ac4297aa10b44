// I/O tests: raw round-trips, PGM export, the bandwidth-accounted Pfs and
// the paper dataset descriptors (Sec. 6.1 / Table 4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "io/datasets.hpp"
#include "io/geometry_io.hpp"
#include "io/pfs.hpp"
#include "io/raw_io.hpp"

namespace xct::io {
namespace {

std::filesystem::path tmp_dir()
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("xct_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(RawIo, VolumeRoundTrip)
{
    const auto dir = tmp_dir();
    Volume v(Dim3{5, 4, 3});
    for (index_t i = 0; i < v.count(); ++i)
        v.span()[static_cast<std::size_t>(i)] = static_cast<float>(i) * 0.25f;
    write_volume(dir / "v.xvol", v);
    const Volume r = read_volume(dir / "v.xvol");
    ASSERT_EQ(r.size(), v.size());
    for (index_t i = 0; i < v.count(); ++i)
        ASSERT_FLOAT_EQ(r.span()[static_cast<std::size_t>(i)], v.span()[static_cast<std::size_t>(i)]);
    std::filesystem::remove_all(dir);
}

TEST(RawIo, StackRoundTripPreservesBand)
{
    const auto dir = tmp_dir();
    ProjectionStack p(3, Range{7, 12}, 6);
    for (index_t i = 0; i < p.count(); ++i)
        p.span()[static_cast<std::size_t>(i)] = static_cast<float>(i % 13);
    write_stack(dir / "p.xstk", p);
    const ProjectionStack r = read_stack(dir / "p.xstk");
    EXPECT_EQ(r.views(), 3);
    EXPECT_EQ(r.row_begin(), 7);
    EXPECT_EQ(r.rows(), 5);
    EXPECT_FLOAT_EQ(r.at(2, 11, 5), p.at(2, 11, 5));
    std::filesystem::remove_all(dir);
}

TEST(RawIo, ReadRejectsWrongMagic)
{
    const auto dir = tmp_dir();
    Volume v(Dim3{2, 2, 2});
    write_volume(dir / "v.xvol", v);
    EXPECT_THROW(read_stack(dir / "v.xvol"), std::invalid_argument);
    EXPECT_THROW(read_volume(dir / "missing.xvol"), std::invalid_argument);
    std::filesystem::remove_all(dir);
}

TEST(RawIo, PgmSliceHasHeaderAndPayload)
{
    const auto dir = tmp_dir();
    Volume v(Dim3{4, 3, 2});
    v.at(1, 1, 0) = 5.0f;
    write_pgm_slice(dir / "s.pgm", v, 0);
    std::ifstream f(dir / "s.pgm", std::ios::binary);
    std::string magic;
    f >> magic;
    int w = 0, h = 0, maxval = 0;
    f >> w >> h >> maxval;
    EXPECT_EQ(magic, "P5");
    EXPECT_EQ(w, 4);
    EXPECT_EQ(h, 3);
    EXPECT_EQ(maxval, 255);
    f.get();  // single whitespace
    std::vector<char> payload(12);
    f.read(payload.data(), 12);
    EXPECT_TRUE(f.good());
    std::filesystem::remove_all(dir);
}

TEST(RawIo, PgmWindowClamps)
{
    const auto dir = tmp_dir();
    Volume v(Dim3{2, 1, 1});
    v.at(0, 0, 0) = -10.0f;
    v.at(1, 0, 0) = 10.0f;
    write_pgm_slice(dir / "w.pgm", v, 0, 0.0f, 1.0f);
    std::ifstream f(dir / "w.pgm", std::ios::binary);
    std::string line;
    std::getline(f, line);  // P5
    std::getline(f, line);  // dims
    std::getline(f, line);  // maxval
    unsigned char a = 0, b = 0;
    f.read(reinterpret_cast<char*>(&a), 1);
    f.read(reinterpret_cast<char*>(&b), 1);
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 255);
    std::filesystem::remove_all(dir);
}

TEST(Pfs, AccountsBytesAndModelledTime)
{
    const auto dir = tmp_dir();
    Pfs pfs(dir, /*load_gbps=*/1.0, /*store_gbps=*/2.0);
    Volume v(Dim3{8, 8, 8});
    pfs.store_volume("out/v.xvol", v);
    EXPECT_TRUE(pfs.exists("out/v.xvol"));
    const auto loaded = pfs.load_volume("out/v.xvol");
    EXPECT_EQ(loaded.size(), v.size());

    const std::uint64_t bytes = 8ull * 8 * 8 * sizeof(float);
    EXPECT_EQ(pfs.store_stats().bytes, bytes);
    EXPECT_EQ(pfs.load_stats().bytes, bytes);
    // store link is 2x faster -> half the modelled seconds.
    EXPECT_NEAR(pfs.load_stats().seconds, 2.0 * pfs.store_stats().seconds, 1e-15);
    std::filesystem::remove_all(dir);
}

TEST(Pfs, RejectsAbsolutePaths)
{
    const auto dir = tmp_dir();
    Pfs pfs(dir, 1.0, 1.0);
    Volume v(Dim3{2, 2, 2});
    EXPECT_THROW(pfs.store_volume("/etc/havoc", v), std::invalid_argument);
    std::filesystem::remove_all(dir);
}

TEST(Datasets, AllSixPaperDatasetsPresent)
{
    const auto& all = paper_datasets();
    ASSERT_EQ(all.size(), 6u);
    EXPECT_NO_THROW(dataset_by_name("coffee_bean"));
    EXPECT_NO_THROW(dataset_by_name("bumblebee"));
    EXPECT_NO_THROW(dataset_by_name("tomo_00027"));
    EXPECT_NO_THROW(dataset_by_name("tomo_00030"));
    EXPECT_THROW(dataset_by_name("nope"), std::invalid_argument);
}

TEST(Datasets, PaperGeometryParameters)
{
    const auto& cb = dataset_by_name("coffee_bean");
    EXPECT_NEAR(cb.geometry.magnification(), 9.48, 0.01);  // Sec. 6.1
    EXPECT_EQ(cb.geometry.nu, 3728);
    EXPECT_EQ(cb.geometry.num_proj, 6401);
    EXPECT_NEAR(cb.geometry.sigma_cor, -0.0021, 1e-9);  // Table 4

    const auto& bb = dataset_by_name("bumblebee");
    EXPECT_NEAR(bb.geometry.magnification(), 16.9, 0.01);
    EXPECT_NEAR(bb.geometry.sigma_cor, 1.03, 1e-9);

    const auto& t29 = dataset_by_name("tomo_00029");
    EXPECT_EQ(t29.geometry.nu, 2004);
    EXPECT_EQ(t29.geometry.nv, 1335);
    EXPECT_NEAR(t29.geometry.sigma_u, 27.0, 1e-9);
    EXPECT_NEAR(t29.geometry.sigma_v, 0.2, 1e-9);

    const auto& t30 = dataset_by_name("tomo_00030");
    EXPECT_EQ(t30.geometry.nu, 668);
    EXPECT_EQ(t30.geometry.num_proj, 720);
    EXPECT_NEAR(t30.geometry.sigma_u, -10.0, 1e-9);
}

TEST(Datasets, ScaledPreservesMagnificationAndPhysicalExtent)
{
    const auto& cb = dataset_by_name("coffee_bean");
    const auto s = cb.scaled(16.0);
    EXPECT_NEAR(s.geometry.magnification(), cb.geometry.magnification(), 1e-12);
    // Physical detector width is preserved: nu * du constant.
    EXPECT_NEAR(static_cast<double>(s.geometry.nu) * s.geometry.du,
                static_cast<double>(cb.geometry.nu) * cb.geometry.du, 1e-6);
    EXPECT_LT(s.geometry.nu, cb.geometry.nu);
    EXPECT_NO_THROW(s.geometry.validate());
}

TEST(Datasets, ScaledKeepsMinimumExtents)
{
    const auto& t30 = dataset_by_name("tomo_00030");
    const auto s = t30.scaled(1000.0);
    EXPECT_GE(s.geometry.nu, 8);
    EXPECT_GE(s.geometry.num_proj, 8);
}

TEST(RawIo, StackInfoWithoutPayload)
{
    const auto dir = tmp_dir();
    ProjectionStack p(5, Range{3, 11}, 7);
    write_stack(dir / "p.xstk", p);
    const StackInfo info = stack_info(dir / "p.xstk");
    EXPECT_EQ(info.views, 5);
    EXPECT_EQ(info.band, (Range{3, 11}));
    EXPECT_EQ(info.cols, 7);
    std::filesystem::remove_all(dir);
}

TEST(RawIo, PartialRowReadMatchesFullRead)
{
    const auto dir = tmp_dir();
    ProjectionStack p(6, 10, 8);
    for (index_t i = 0; i < p.count(); ++i)
        p.span()[static_cast<std::size_t>(i)] = static_cast<float>(i % 97) * 0.5f;
    write_stack(dir / "p.xstk", p);

    const ProjectionStack part = read_stack_rows(dir / "p.xstk", Range{2, 5}, Range{3, 7});
    EXPECT_EQ(part.views(), 3);
    EXPECT_EQ(part.row_begin(), 3);
    EXPECT_EQ(part.rows(), 4);
    for (index_t s = 2; s < 5; ++s)
        for (index_t v = 3; v < 7; ++v)
            for (index_t u = 0; u < 8; ++u)
                ASSERT_FLOAT_EQ(part.at(s - 2, v, u), p.at(s, v, u));
    std::filesystem::remove_all(dir);
}

TEST(RawIo, PartialReadFromBandRestrictedFile)
{
    // A file that itself stores only a band: global coordinates compose.
    const auto dir = tmp_dir();
    ProjectionStack p(3, Range{20, 32}, 4, 0.0f);
    p.at(1, 25, 2) = 9.0f;
    write_stack(dir / "p.xstk", p);
    const ProjectionStack part = read_stack_rows(dir / "p.xstk", Range{1, 2}, Range{24, 27});
    EXPECT_FLOAT_EQ(part.at(0, 25, 2), 9.0f);
    EXPECT_THROW(read_stack_rows(dir / "p.xstk", Range{0, 1}, Range{10, 25}),
                 std::invalid_argument);
    std::filesystem::remove_all(dir);
}

TEST(Pfs, PartialLoadAccountsOnlyReadBytes)
{
    const auto dir = tmp_dir();
    Pfs pfs(dir, 1.0, 1.0);
    ProjectionStack p(10, 20, 16);
    pfs.store_stack("proj.xstk", p);
    pfs.reset_stats();
    const ProjectionStack part = pfs.load_stack_rows("proj.xstk", Range{0, 5}, Range{4, 8});
    EXPECT_EQ(pfs.load_stats().bytes, static_cast<std::uint64_t>(5 * 4 * 16) * sizeof(float));
    EXPECT_EQ(part.count(), 5 * 4 * 16);
    const StackInfo info = pfs.stack_info("proj.xstk");
    EXPECT_EQ(info.views, 10);
    std::filesystem::remove_all(dir);
}

TEST(Datasets, WithVolumeKeepsFovInscribed)
{
    const auto& t30 = dataset_by_name("tomo_00030");
    const auto d = t30.with_volume(64);
    EXPECT_EQ(d.geometry.vol, (Dim3{64, 64, 64}));
    // The volume's physical X extent equals the FOV at the axis.
    EXPECT_NEAR(d.geometry.dx * 64.0,
                d.geometry.du * (t30.geometry.dso / t30.geometry.dsd) * 668.0, 1e-9);
}

TEST(GeometryIo, RoundTripPreservesEveryField)
{
    const auto dir = tmp_dir();
    GeometryFile gf;
    gf.geometry = dataset_by_name("bumblebee").scaled(20.0).with_volume(40).geometry;
    gf.geometry.scan_range = 4.2;
    gf.beer = BeerLawScalar{123.0f, 45678.0f};
    gf.raw_counts = true;
    write_geometry(dir / "g.geom", gf);
    const GeometryFile r = read_geometry(dir / "g.geom");
    EXPECT_DOUBLE_EQ(r.geometry.dso, gf.geometry.dso);
    EXPECT_DOUBLE_EQ(r.geometry.dsd, gf.geometry.dsd);
    EXPECT_EQ(r.geometry.num_proj, gf.geometry.num_proj);
    EXPECT_EQ(r.geometry.nu, gf.geometry.nu);
    EXPECT_EQ(r.geometry.vol, gf.geometry.vol);
    EXPECT_DOUBLE_EQ(r.geometry.dx, gf.geometry.dx);
    EXPECT_DOUBLE_EQ(r.geometry.sigma_cor, gf.geometry.sigma_cor);
    EXPECT_DOUBLE_EQ(r.geometry.scan_range, 4.2);
    EXPECT_FLOAT_EQ(r.beer.dark, 123.0f);
    EXPECT_FLOAT_EQ(r.beer.blank, 45678.0f);
    EXPECT_TRUE(r.raw_counts);
    std::filesystem::remove_all(dir);
}

TEST(GeometryIo, RejectsUnknownKeys)
{
    const auto dir = tmp_dir();
    {
        std::ofstream f(dir / "bad.geom");
        f << "dso 100\nwat 7\n";
    }
    EXPECT_THROW(read_geometry(dir / "bad.geom"), std::invalid_argument);
    std::filesystem::remove_all(dir);
}

TEST(GeometryIo, RejectsInvalidGeometry)
{
    const auto dir = tmp_dir();
    {
        std::ofstream f(dir / "bad.geom");
        f << "dso 100\ndsd 50\n";  // detector inside the object
    }
    EXPECT_THROW(read_geometry(dir / "bad.geom"), std::invalid_argument);
    std::filesystem::remove_all(dir);
}

TEST(GeometryIo, MissingFileThrows)
{
    EXPECT_THROW(read_geometry("/nonexistent/x.geom"), std::invalid_argument);
}

// ---- structural validation: truncation, size mismatch, checkpoints -----
// (DESIGN.md §3f: readers reject damaged files with a file:line-bearing
// error instead of reading short.)

/// The exact error message, for asserting on its file:line prefix.
std::string thrown_message(const std::function<void()>& fn)
{
    try {
        fn();
    } catch (const std::exception& e) {
        return e.what();
    }
    return {};
}

TEST(RawIo, RejectsTruncatedVolumeWithFileLine)
{
    const auto dir = tmp_dir();
    Volume v(Dim3{6, 5, 4});
    write_volume(dir / "v.xvol", v);
    const auto path = dir / "v.xvol";
    std::filesystem::resize_file(path, std::filesystem::file_size(path) - 7);
    EXPECT_THROW(read_volume(path), std::invalid_argument);
    const std::string msg = thrown_message([&] { read_volume(path); });
    EXPECT_NE(msg.find("raw_io.cpp:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("size mismatch"), std::string::npos) << msg;
    std::filesystem::remove_all(dir);
}

TEST(RawIo, RejectsOversizedVolume)
{
    // Longer-than-header files are just as suspect as truncated ones: the
    // header no longer describes the payload that follows.
    const auto dir = tmp_dir();
    write_volume(dir / "v.xvol", Volume(Dim3{3, 3, 3}));
    {
        std::ofstream f(dir / "v.xvol", std::ios::binary | std::ios::app);
        const float junk = 0.0f;
        f.write(reinterpret_cast<const char*>(&junk), sizeof junk);
    }
    EXPECT_THROW(read_volume(dir / "v.xvol"), std::invalid_argument);
    std::filesystem::remove_all(dir);
}

TEST(RawIo, RejectsTruncatedStackEvenForPartialReads)
{
    // read_stack_rows seeks into the payload, so without the up-front
    // whole-file size check a truncated tail would only surface for the
    // unlucky view that straddles the cut.
    const auto dir = tmp_dir();
    ProjectionStack p(4, Range{0, 8}, 6);
    write_stack(dir / "p.xstk", p);
    const auto path = dir / "p.xstk";
    std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
    EXPECT_THROW(read_stack(path), std::invalid_argument);
    EXPECT_THROW(stack_info(path), std::invalid_argument);
    const std::string msg =
        thrown_message([&] { read_stack_rows(path, Range{0, 1}, Range{0, 2}); });
    EXPECT_NE(msg.find("raw_io.cpp:"), std::string::npos) << msg;
    std::filesystem::remove_all(dir);
}

TEST(CheckpointIo, SlabRoundTripCarriesDigest)
{
    const auto dir = tmp_dir();
    Volume v(Dim3{5, 4, 3});
    for (index_t i = 0; i < v.count(); ++i)
        v.span()[static_cast<std::size_t>(i)] = static_cast<float>(i) - 17.5f;
    write_checkpoint_slab(dir / "s.xckp", v, 0xDEADBEEFCAFEF00Dull);
    const CheckpointSlab slab = read_checkpoint_slab(dir / "s.xckp");
    EXPECT_EQ(slab.digest, 0xDEADBEEFCAFEF00Dull);
    ASSERT_EQ(slab.volume.size(), v.size());
    EXPECT_EQ(std::memcmp(slab.volume.span().data(), v.span().data(),
                          static_cast<std::size_t>(v.count()) * sizeof(float)),
              0);
    std::filesystem::remove_all(dir);
}

TEST(CheckpointIo, RejectsForeignMagicAndTruncation)
{
    const auto dir = tmp_dir();
    // A volume file is not a checkpoint slab (versioned magic differs)...
    write_volume(dir / "v.xvol", Volume(Dim3{2, 2, 2}));
    EXPECT_THROW(read_checkpoint_slab(dir / "v.xvol"), std::invalid_argument);
    // ...and a half-written slab is rejected structurally, before any
    // digest comparison could even run.
    write_checkpoint_slab(dir / "s.xckp", Volume(Dim3{4, 4, 4}), 1);
    std::filesystem::resize_file(dir / "s.xckp",
                                 std::filesystem::file_size(dir / "s.xckp") - 9);
    const std::string msg = thrown_message([&] { read_checkpoint_slab(dir / "s.xckp"); });
    EXPECT_NE(msg.find("raw_io.cpp:"), std::string::npos) << msg;
    std::filesystem::remove_all(dir);
}

// ---- streamed volume output (VolumeWriter) and partial volume reads -----

Volume ramp_volume(Dim3 d)
{
    Volume v(d);
    for (index_t i = 0; i < v.count(); ++i)
        v.span()[static_cast<std::size_t>(i)] = static_cast<float>(i) * 0.5f - 3.0f;
    return v;
}

std::string file_bytes(const std::filesystem::path& path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

TEST(RawIo, VolumeSlicesMatchTheWholeRead)
{
    const auto dir = tmp_dir();
    const Volume v = ramp_volume(Dim3{5, 3, 7});
    write_volume(dir / "v.xvol", v);
    const Volume part = read_volume_slices(dir / "v.xvol", Range{2, 5});
    ASSERT_EQ(part.size(), (Dim3{5, 3, 3}));
    for (index_t k = 0; k < 3; ++k)
        for (index_t i = 0; i < 15; ++i)
            ASSERT_EQ(part.slice(k)[static_cast<std::size_t>(i)],
                      v.slice(k + 2)[static_cast<std::size_t>(i)]);
    std::filesystem::remove_all(dir);
}

TEST(RawIo, VolumeSlicesRejectBadRangesAndDamagedFiles)
{
    const auto dir = tmp_dir();
    const auto path = dir / "v.xvol";
    write_volume(path, ramp_volume(Dim3{4, 4, 6}));
    for (const Range r : {Range{5, 7}, Range{-1, 1}, Range{3, 3}}) {
        const std::string msg = thrown_message([&] { read_volume_slices(path, r); });
        EXPECT_NE(msg.find("outside the 6 slices"), std::string::npos) << msg;
    }
    // A truncated file fails the exact-size check, even for slices that
    // the remaining bytes would still hold.
    std::filesystem::resize_file(path, std::filesystem::file_size(path) - 4);
    const std::string truncated = thrown_message([&] { read_volume_slices(path, Range{0, 1}); });
    EXPECT_NE(truncated.find("size mismatch"), std::string::npos) << truncated;
    // A stack is not a volume.
    write_stack(dir / "p.xstk", ProjectionStack(4, Range{0, 4}, 6));
    const std::string magic =
        thrown_message([&] { read_volume_slices(dir / "p.xstk", Range{0, 1}); });
    EXPECT_NE(magic.find("not a volume file"), std::string::npos) << magic;
    std::filesystem::remove_all(dir);
}

TEST(VolumeWriter, UncommittedWriterLeavesNoFile)
{
    const auto dir = tmp_dir();
    const auto path = dir / "v.xvol";
    {
        VolumeWriter w(path, Dim3{4, 4, 8});
        EXPECT_TRUE(std::filesystem::exists(dir / "v.xvol.tmp"));
        w.write(0, ramp_volume(Dim3{4, 4, 3}));
    }
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(dir / "v.xvol.tmp"));
    std::filesystem::remove_all(dir);
}

TEST(VolumeWriter, CommitRequiresEverySlice)
{
    const auto dir = tmp_dir();
    VolumeWriter w(dir / "v.xvol", Dim3{4, 4, 8});
    w.write(0, ramp_volume(Dim3{4, 4, 5}));
    EXPECT_THROW(w.write(6, ramp_volume(Dim3{4, 4, 3})), std::invalid_argument);  // past z
    EXPECT_THROW(w.write(5, ramp_volume(Dim3{4, 3, 3})), std::invalid_argument);  // wrong y
    const std::string msg = thrown_message([&] { w.commit(); });
    EXPECT_NE(msg.find("5 of 8 slices"), std::string::npos) << msg;
    EXPECT_FALSE(std::filesystem::exists(dir / "v.xvol"));
    std::filesystem::remove_all(dir);
}

TEST(VolumeWriter, ConcurrentDisjointSlabsMatchWriteVolume)
{
    // Four group roots writing their slabs at once produce the same bytes
    // as writing the assembled volume in one piece.
    const auto dir = tmp_dir();
    const Dim3 d{16, 12, 22};
    const Volume whole = ramp_volume(d);
    write_volume(dir / "whole.xvol", whole);
    {
        VolumeWriter w(dir / "slabs.xvol", d);
        std::vector<std::thread> roots;
        for (index_t t = 0; t < 4; ++t)
            roots.emplace_back([&, t] {
                // Slabs of 3 slices, dealt round-robin to the four threads.
                for (index_t z0 = 3 * t; z0 < d.z; z0 += 12) {
                    const index_t nz = std::min<index_t>(3, d.z - z0);
                    Volume slab(Dim3{d.x, d.y, nz});
                    for (index_t k = 0; k < nz; ++k) {
                        const auto src = whole.slice(z0 + k);
                        std::copy(src.begin(), src.end(), slab.slice(k).begin());
                    }
                    w.write(z0, slab);
                }
            });
        for (auto& r : roots) r.join();
        w.commit();
    }
    EXPECT_EQ(file_bytes(dir / "slabs.xvol"), file_bytes(dir / "whole.xvol"));
    EXPECT_FALSE(std::filesystem::exists(dir / "slabs.xvol.tmp"));
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xct::io
