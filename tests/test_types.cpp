// Unit tests for core value types: ranges, matrices, containers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "core/scratch.hpp"
#include "core/types.hpp"
#include "core/volume.hpp"

namespace xct {
namespace {

TEST(Range, LengthAndEmptiness)
{
    EXPECT_EQ((Range{2, 7}.length()), 5);
    EXPECT_TRUE((Range{3, 3}.empty()));
    EXPECT_TRUE((Range{5, 2}.empty()));
    EXPECT_FALSE((Range{0, 1}.empty()));
}

TEST(Range, Contains)
{
    const Range r{2, 5};
    EXPECT_FALSE(r.contains(1));
    EXPECT_TRUE(r.contains(2));
    EXPECT_TRUE(r.contains(4));
    EXPECT_FALSE(r.contains(5));
}

TEST(Range, IntersectOverlapping)
{
    EXPECT_EQ(intersect({0, 10}, {5, 15}), (Range{5, 10}));
    EXPECT_EQ(intersect({5, 15}, {0, 10}), (Range{5, 10}));
}

TEST(Range, IntersectDisjointIsEmpty)
{
    EXPECT_TRUE(intersect({0, 3}, {5, 9}).empty());
}

TEST(Range, IntersectNested)
{
    EXPECT_EQ(intersect({0, 10}, {3, 4}), (Range{3, 4}));
}

TEST(Range, HullCoversBoth)
{
    EXPECT_EQ(hull({0, 3}, {5, 9}), (Range{0, 9}));
    EXPECT_EQ(hull({5, 9}, {0, 3}), (Range{0, 9}));
}

TEST(Range, HullIgnoresEmpty)
{
    EXPECT_EQ(hull({4, 4}, {5, 9}), (Range{5, 9}));
    EXPECT_EQ(hull({5, 9}, {4, 4}), (Range{5, 9}));
}

TEST(Mat34, MultiplyByIdentityIsNoop)
{
    Mat34 m;
    m[0] = {1, 2, 3, 4};
    m[1] = {5, 6, 7, 8};
    m[2] = {9, 10, 11, 12};
    const Mat34 r = multiply(m, Mat44::identity());
    for (int i = 0; i < 3; ++i) {
        EXPECT_DOUBLE_EQ(r[i].x, m[i].x);
        EXPECT_DOUBLE_EQ(r[i].y, m[i].y);
        EXPECT_DOUBLE_EQ(r[i].z, m[i].z);
        EXPECT_DOUBLE_EQ(r[i].w, m[i].w);
    }
}

TEST(Mat44, MultiplyComposesTranslations)
{
    Mat44 a = Mat44::identity();
    a.m[0][3] = 2.0;
    Mat44 b = Mat44::identity();
    b.m[0][3] = 3.0;
    const Mat44 c = multiply(a, b);
    EXPECT_DOUBLE_EQ(c.m[0][3], 5.0);
}

TEST(Vec3, DotAndNorm)
{
    const Vec3 a{3.0, 4.0, 0.0};
    EXPECT_DOUBLE_EQ(a.norm(), 5.0);
    EXPECT_DOUBLE_EQ(a.dot({1.0, 1.0, 1.0}), 7.0);
}

TEST(Volume, LayoutIsXFastest)
{
    Volume v(Dim3{3, 4, 5});
    v.at(1, 2, 3) = 42.0f;
    EXPECT_FLOAT_EQ(v.span()[static_cast<std::size_t>((3 * 4 + 2) * 3 + 1)], 42.0f);
}

TEST(Volume, SliceViewsAreContiguous)
{
    Volume v(Dim3{2, 3, 4});
    v.at(1, 2, 2) = 7.0f;
    const auto s = v.slice(2);
    EXPECT_EQ(s.size(), 6u);
    EXPECT_FLOAT_EQ(s[5], 7.0f);
}

TEST(Volume, RejectsEmptyExtents)
{
    EXPECT_THROW(Volume(Dim3{0, 1, 1}), std::invalid_argument);
}

TEST(ProjectionStack, FullDetectorLayout)
{
    ProjectionStack p(2, 3, 4);
    p.at(1, 2, 3) = 9.0f;
    EXPECT_FLOAT_EQ(p.span()[static_cast<std::size_t>((1 * 3 + 2) * 4 + 3)], 9.0f);
    EXPECT_EQ(p.row_begin(), 0);
}

TEST(ProjectionStack, BandRestrictedGlobalIndexing)
{
    ProjectionStack p(2, Range{10, 14}, 5);
    EXPECT_EQ(p.rows(), 4);
    EXPECT_EQ(p.row_begin(), 10);
    p.at(1, 12, 3) = 5.0f;
    EXPECT_FLOAT_EQ(p.row(1, 12)[3], 5.0f);
}

TEST(ProjectionStack, ViewSpanCoversBand)
{
    ProjectionStack p(3, Range{4, 7}, 2);
    EXPECT_EQ(p.view(1).size(), 6u);
}

// ---- scratch::Pages: the bulk storage allocator ------------------------

constexpr std::size_t kPageFloats = scratch::kPageBytes / sizeof(float);

bool all_bits(std::span<const float> v, float want)
{
    const auto bits = std::bit_cast<std::uint32_t>(want);
    return std::all_of(v.begin(), v.end(),
                       [bits](float x) { return std::bit_cast<std::uint32_t>(x) == bits; });
}

TEST(Pages, MapsFromOnePageUp)
{
    EXPECT_FALSE(scratch::Pages<float>::maps(kPageFloats - 1));
    EXPECT_EQ(scratch::Pages<float>::maps(kPageFloats), scratch::detail::kMapLarge);
    EXPECT_EQ(scratch::Pages<double>::maps(kPageFloats / 2), scratch::detail::kMapLarge);
    EXPECT_FALSE(scratch::Pages<double>::maps(kPageFloats / 2 - 1));
}

TEST(Pages, MappedStorageIsPageAlignedAndReadsZero)
{
    if (!scratch::detail::kMapLarge) GTEST_SKIP() << "AddressSanitizer: every size is heap";
    scratch::Pages<float> a;
    for (const std::size_t n : {kPageFloats, 3 * kPageFloats + 1}) {
        float* p = a.allocate(n);
        EXPECT_EQ(std::bit_cast<std::uintptr_t>(p) % scratch::kPageBytes, 0u) << n;
        EXPECT_TRUE(all_bits(std::span<const float>(p, n), 0.0f)) << n;
        a.deallocate(p, n);
    }
}

TEST(Pages, DirtiedFreedAndReallocatedStorageReadsZero)
{
    if (!scratch::detail::kMapLarge) GTEST_SKIP() << "AddressSanitizer: every size is heap";
    scratch::Pages<float> a;
    const std::size_t n = 2 * kPageFloats;
    float* p = a.allocate(n);
    std::fill(p, p + n, 3.0f);
    a.deallocate(p, n);
    p = a.allocate(n);
    EXPECT_TRUE(all_bits(std::span<const float>(p, n), 0.0f));
    a.deallocate(p, n);
}

TEST(Pages, EverySizeIsWritableEndToEnd)
{
    // Both sides of kPageBytes and just above a multiple of it: the tail
    // past the last whole page is mapped, and every size frees cleanly.
    scratch::Pages<float> a;
    for (const std::size_t n : {std::size_t{1}, kPageFloats - 1, kPageFloats, kPageFloats + 1,
                                2 * kPageFloats + 1}) {
        float* p = a.allocate(n);
        for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<float>(i % 1000);
        EXPECT_EQ(p[0], 0.0f);
        EXPECT_EQ(p[n - 1], static_cast<float>((n - 1) % 1000)) << n;
        a.deallocate(p, n);
    }
}

TEST(Pages, AnImpossibleSizeThrowsInsteadOfWrapping)
{
    scratch::Pages<float> a;
    EXPECT_THROW((void)a.allocate(std::numeric_limits<std::size_t>::max() / sizeof(float)),
                 std::bad_alloc);
}

TEST(Volume, FillsReadBackBitwiseAtAndAboveAPage)
{
    const float fills[] = {1.5f, -0.0f, 0.0f, std::numeric_limits<float>::quiet_NaN()};
    // 511, 512 and 513 columns of 256 x 4: just below, at and above 2 MiB.
    for (const index_t nx : {511, 512, 513}) {
        const Dim3 d{nx, 256, 4};
        EXPECT_TRUE(all_bits(Volume(d).span(), 0.0f)) << nx;
        for (const float f : fills) {
            const Volume v(d, f);
            EXPECT_TRUE(all_bits(v.span(), f)) << nx << " fill " << f;
            const Volume copy = v;
            EXPECT_TRUE(all_bits(copy.span(), f)) << nx << " copy, fill " << f;
        }
    }
}

TEST(ProjectionStack, FillsReadBackBitwiseAtAndAboveAPage)
{
    const float fills[] = {-2.0f, -0.0f, 0.0f};
    for (const index_t cols : {511, 512, 513}) {
        EXPECT_TRUE(all_bits(ProjectionStack(64, 16, cols).span(), 0.0f)) << cols;
        EXPECT_TRUE(all_bits(ProjectionStack(16, Range{3, 67}, cols).span(), 0.0f)) << cols;
        for (const float f : fills) {
            EXPECT_TRUE(all_bits(ProjectionStack(64, 16, cols, f).span(), f))
                << cols << " fill " << f;
            EXPECT_TRUE(all_bits(ProjectionStack(16, Range{3, 67}, cols, f).span(), f))
                << cols << " band, fill " << f;
        }
    }
}

TEST(Require, ThrowsWithMessage)
{
    EXPECT_THROW(require(false, "boom"), std::invalid_argument);
    EXPECT_NO_THROW(require(true, "ok"));
}

/// The serial pass Extent defines: {x0, x0}, then std::min / std::max.
Extent serial_extent(const std::vector<float>& x)
{
    Extent r{x[0], x[0]};
    for (const float v : x) {
        r.lo = std::min(r.lo, v);
        r.hi = std::max(r.hi, v);
    }
    return r;
}

TEST(Extent, PartsMergedInOrderAreTheSerialFold)
{
    // Signed-zero ties at the start and later, NaN at x0 and elsewhere
    // (also at a part's start), infinities: every split of every sequence
    // into two and three parts, each part folded from the empty extent
    // and merged into {x0, x0}, is the serial pass bit for bit.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const std::vector<std::vector<float>> cases = {
        {-0.0f, 1.0f, 0.0f, 2.0f, -0.0f},  {0.0f, -0.0f, 3.0f, -0.0f},
        {2.0f, 0.0f, -0.0f, 1.0f, 0.0f},   {-1.0f, -0.0f, 0.0f, -2.0f, -0.0f},
        {nan, 1.0f, -3.0f, 2.0f},          {1.0f, nan, -3.0f, nan, 2.0f},
        {0.5f, 2.0f, nan, nan, 0.25f},     {inf, 1.0f, -inf, nan, 0.0f},
        {-inf, -inf, nan},                  {3.0f},
    };
    const auto bits = [](float f) { return std::bit_cast<std::uint32_t>(f); };
    for (const std::vector<float>& x : cases) {
        const Extent want = serial_extent(x);
        for (std::size_t a = 0; a <= x.size(); ++a)
            for (std::size_t b = a; b <= x.size(); ++b) {
                Extent parts[3];
                for (std::size_t i = 0; i < x.size(); ++i)
                    parts[i < a ? 0 : i < b ? 1 : 2].add(x[i]);
                Extent got{x[0], x[0]};
                for (const Extent& p : parts) got.merge(p);
                EXPECT_EQ(bits(got.lo), bits(want.lo)) << "case of size " << x.size() << " split "
                                                       << a << "/" << b;
                EXPECT_EQ(bits(got.hi), bits(want.hi)) << "case of size " << x.size() << " split "
                                                       << a << "/" << b;
            }
    }
}

TEST(Extent, LaneFoldIsTheSerialFold)
{
    // Rows of every length 1..70 (whole vectors, tails, both at every
    // backend width) drawn from a pool where ties are likely: -0 and +0,
    // NaNs of both signs, +-inf and a few finite values, plus all-zero
    // rows of mixed signs.  extent_of is Extent::add from the empty
    // extent, bit for bit, and so is merging it into {x0, x0}.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float pool[] = {-0.0f, 0.0f, -0.0f, 0.0f, nan, -nan, inf, -inf, 1.5f, -2.0f, 0.25f};
    const auto bits = [](float f) { return std::bit_cast<std::uint32_t>(f); };
    std::mt19937 rng(17);
    std::uniform_int_distribution<std::size_t> pick(0, std::size(pool) - 1);
    std::uniform_int_distribution<int> zeros_only(0, 5);
    for (std::size_t n = 1; n <= 70; ++n)
        for (int trial = 0; trial < 200; ++trial) {
            const bool all_zero = zeros_only(rng) == 0;
            std::vector<float> x(n);
            for (float& v : x) v = all_zero ? pool[pick(rng) % 4] : pool[pick(rng)];
            Extent want;
            for (const float v : x) want.add(v);
            const Extent got = extent_of(x);
            ASSERT_EQ(bits(got.lo), bits(want.lo)) << "length " << n << ", trial " << trial;
            ASSERT_EQ(bits(got.hi), bits(want.hi)) << "length " << n << ", trial " << trial;
            Extent serial{x[0], x[0]}, merged{x[0], x[0]};
            for (const float v : x) serial.add(v);
            merged.merge(got);
            ASSERT_EQ(bits(merged.lo), bits(serial.lo)) << "length " << n << ", trial " << trial;
            ASSERT_EQ(bits(merged.hi), bits(serial.hi)) << "length " << n << ", trial " << trial;
        }
    EXPECT_EQ(bits(extent_of({}).lo), bits(inf));
    EXPECT_EQ(bits(extent_of({}).hi), bits(-inf));
}

}  // namespace
}  // namespace xct
