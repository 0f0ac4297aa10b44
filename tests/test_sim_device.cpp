// Simulated-accelerator tests: capacity accounting, transfer statistics,
// and the CUDA-like texture semantics (clamp + circular depth) that the
// streaming kernel depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "sim/device.hpp"

namespace xct::sim {
namespace {

TEST(Device, TracksAllocations)
{
    Device dev(1024);
    EXPECT_EQ(dev.capacity(), 1024u);
    EXPECT_EQ(dev.used(), 0u);
    dev.allocate(100);
    EXPECT_EQ(dev.used(), 100u);
    EXPECT_EQ(dev.available(), 924u);
    dev.release(100);
    EXPECT_EQ(dev.used(), 0u);
}

TEST(Device, ThrowsOnExhaustion)
{
    Device dev(256);
    dev.allocate(200);
    try {
        dev.allocate(100);
        FAIL() << "expected DeviceOutOfMemory";
    } catch (const DeviceOutOfMemory& e) {
        EXPECT_EQ(e.requested(), 100u);
        EXPECT_EQ(e.available(), 56u);
    }
}

TEST(Device, RejectsZeroCapacity)
{
    EXPECT_THROW(Device(0), std::invalid_argument);
}

TEST(DeviceBuffer, RaiiReleasesOnDestruction)
{
    Device dev(1024);
    {
        DeviceBuffer buf(dev, 64);  // 256 bytes
        EXPECT_EQ(dev.used(), 256u);
    }
    EXPECT_EQ(dev.used(), 0u);
}

TEST(DeviceBuffer, MoveTransfersOwnership)
{
    Device dev(1024);
    DeviceBuffer a(dev, 32);
    DeviceBuffer b(std::move(a));
    EXPECT_EQ(b.count(), 32);
    EXPECT_EQ(dev.used(), 128u);
}

TEST(DeviceBuffer, UploadDownloadRoundTripAndStats)
{
    Device dev(1 << 20, /*h2d_gbps=*/1.0, /*d2h_gbps=*/2.0);
    DeviceBuffer buf(dev, 16);
    std::vector<float> src(16);
    std::iota(src.begin(), src.end(), 0.0f);
    buf.upload(src);
    std::vector<float> dst(16, -1.0f);
    buf.download(dst);
    EXPECT_EQ(src, dst);

    EXPECT_EQ(dev.h2d_stats().bytes, 64u);
    EXPECT_EQ(dev.h2d_stats().transfers, 1u);
    EXPECT_EQ(dev.d2h_stats().bytes, 64u);
    // Modelled time: bytes / (GB/s); D2H link is twice as fast here.
    EXPECT_NEAR(dev.h2d_stats().seconds, 2.0 * dev.d2h_stats().seconds, 1e-15);
}

TEST(DeviceBuffer, PartialTransfersWithOffset)
{
    Device dev(1 << 20);
    DeviceBuffer buf(dev, 8);
    buf.fill(0.0f);
    const std::vector<float> src{1.0f, 2.0f};
    buf.upload(src, 3);
    std::vector<float> dst(2, 0.0f);
    buf.download(dst, 3);
    EXPECT_FLOAT_EQ(dst[0], 1.0f);
    EXPECT_FLOAT_EQ(dst[1], 2.0f);
    EXPECT_THROW(buf.upload(src, 7), std::invalid_argument);
}

TEST(DeviceBuffer, AllocationBeyondCapacityThrows)
{
    Device dev(100);
    EXPECT_THROW(DeviceBuffer(dev, 100), DeviceOutOfMemory);
}

TEST(Texture3, FetchLayoutIsDepthHeightWidth)
{
    Device dev(1 << 20);
    Texture3 tex(dev, 4, 3, 2);
    std::vector<float> planes(4 * 3 * 2);
    std::iota(planes.begin(), planes.end(), 0.0f);
    tex.copy_planes(planes, 0, 2);
    // Element (x=1, y=2, z=1): ((1*3 + 2)*4 + 1) = 21.
    EXPECT_FLOAT_EQ(tex.fetch(1, 2, 1), 21.0f);
}

TEST(Texture3, XClampReplicatesEdges)
{
    Device dev(1 << 20);
    Texture3 tex(dev, 3, 1, 1);
    const std::vector<float> p{10.0f, 20.0f, 30.0f};
    tex.copy_planes(p, 0, 1);
    EXPECT_FLOAT_EQ(tex.fetch(-5, 0, 0), 10.0f);
    EXPECT_FLOAT_EQ(tex.fetch(7, 0, 0), 30.0f);
}

TEST(Texture3, YClampReplicatesEdges)
{
    Device dev(1 << 20);
    Texture3 tex(dev, 1, 3, 1);
    const std::vector<float> p{1.0f, 2.0f, 3.0f};
    tex.copy_planes(p, 0, 1);
    EXPECT_FLOAT_EQ(tex.fetch(0, -1, 0), 1.0f);
    EXPECT_FLOAT_EQ(tex.fetch(0, 9, 0), 3.0f);
}

TEST(Texture3, DepthWrapsCircularly)
{
    // The devPixel z % dimZ addressing of Listing 1.
    Device dev(1 << 20);
    Texture3 tex(dev, 1, 1, 4);
    const std::vector<float> p{0.0f, 1.0f, 2.0f, 3.0f};
    tex.copy_planes(p, 0, 4);
    EXPECT_FLOAT_EQ(tex.fetch(0, 0, 5), 1.0f);
    EXPECT_FLOAT_EQ(tex.fetch(0, 0, 8), 0.0f);
    EXPECT_FLOAT_EQ(tex.fetch(0, 0, -1), 3.0f);  // defensive: negative wraps too
}

TEST(Texture3, CopyPlanesRejectsWrappedRange)
{
    Device dev(1 << 20);
    Texture3 tex(dev, 2, 2, 4);
    std::vector<float> p(2 * 2 * 2, 0.0f);
    EXPECT_THROW(tex.copy_planes(p, 3, 2), std::invalid_argument);
    EXPECT_THROW(tex.copy_planes(p, 0, 3), std::invalid_argument);  // size mismatch
}

TEST(Texture3, CopyPlanesAccountsH2dBytes)
{
    Device dev(1 << 20);
    Texture3 tex(dev, 8, 4, 4);
    std::vector<float> p(8 * 4 * 2, 1.0f);
    tex.copy_planes(p, 1, 2);
    EXPECT_EQ(dev.h2d_stats().bytes, p.size() * sizeof(float));
}

TEST(Texture3, CountsAgainstDeviceBudget)
{
    Device dev(16 * sizeof(float));
    Texture3 tex(dev, 2, 2, 4);  // exactly 16 floats
    EXPECT_EQ(dev.available(), 0u);
    EXPECT_THROW(Texture3(dev, 1, 1, 1), DeviceOutOfMemory);
}

TEST(Device, ResetStatsClearsCounters)
{
    Device dev(1 << 20);
    DeviceBuffer buf(dev, 4);
    std::vector<float> x(4, 0.0f);
    buf.upload(x);
    dev.reset_stats();
    EXPECT_EQ(dev.h2d_stats().bytes, 0u);
    EXPECT_EQ(dev.h2d_stats().transfers, 0u);
}

TEST(Texture3, TexelsNeverUploadedReadZeroInALargeTexture)
{
    // 256 x 64 x 40 floats = 2.5 MiB: mapped storage that the kernel,
    // not the constructor, zeroes.  The back-projection kernel's
    // zero-weight partner row reads texels no band wrote, so they must be
    // finite: +0.0f.
    Device dev(64u << 20);
    Texture3 tex(dev, 256, 64, 40);
    EXPECT_EQ(dev.used(), std::size_t{256 * 64 * 40} * sizeof(float));
    std::vector<float> planes(std::size_t{3} * 256 * 64);
    std::iota(planes.begin(), planes.end(), 1.0f);
    tex.copy_planes(planes, 17, 3);
    const auto texels = tex.device_span();
    const std::size_t plane = 256 * 64;
    for (std::size_t i = 0; i < texels.size(); ++i) {
        const bool uploaded = i >= 17 * plane && i < 20 * plane;
        const float want = uploaded ? planes[i - 17 * plane] : 0.0f;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(texels[i]), std::bit_cast<std::uint32_t>(want))
            << i;
    }
    DeviceBuffer buf(dev, 1 << 20);  // 4 MiB
    const auto words = buf.device_span();
    EXPECT_TRUE(std::all_of(words.begin(), words.end(),
                            [](float v) { return std::bit_cast<std::uint32_t>(v) == 0; }));
}

// --- 8-bit textures (the QuantizedTexture3 precision ablation) ----------

TEST(QuantizedTexture, DequantisesWithinOneStep)
{
    sim::Device dev(1 << 20);
    sim::QuantizedTexture3 tex(dev, 4, 1, 1, 0.0f, 10.0f);
    const std::vector<float> p{0.0f, 2.5f, 7.5f, 10.0f};
    tex.copy_planes(p, 0, 1);
    const float step = 10.0f / 255.0f;
    for (index_t i = 0; i < 4; ++i)
        EXPECT_NEAR(tex.fetch(i, 0, 0), p[static_cast<std::size_t>(i)], step);
}

TEST(QuantizedTexture, ClampsOutOfRangeValues)
{
    sim::Device dev(1 << 20);
    sim::QuantizedTexture3 tex(dev, 2, 1, 1, 0.0f, 1.0f);
    const std::vector<float> p{-5.0f, 5.0f};
    tex.copy_planes(p, 0, 1);
    EXPECT_FLOAT_EQ(tex.fetch(0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(tex.fetch(1, 0, 0), 1.0f);
}

TEST(QuantizedTexture, UsesOneBytePerTexel)
{
    sim::Device dev(1000);
    sim::QuantizedTexture3 tex(dev, 10, 10, 10, 0.0f, 1.0f);
    EXPECT_EQ(dev.used(), 1000u);  // vs 4000 for fp32
}

}  // namespace
}  // namespace xct::sim
