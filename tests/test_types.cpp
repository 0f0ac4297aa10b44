// Unit tests for core value types: ranges, matrices, containers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

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

}  // namespace
}  // namespace xct
