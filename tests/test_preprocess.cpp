// Beer-law preprocessing tests (Eq. 1) and its synthetic inverse.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/parallel.hpp"
#include "core/preprocess.hpp"
#include "scoped_threads.hpp"

namespace xct {
namespace {

TEST(BeerLaw, FullTransmissionGivesZeroAttenuation)
{
    std::vector<float> c{65536.0f};
    beer_law(c, BeerLawScalar{0.0f, 65536.0f});
    EXPECT_NEAR(c[0], 0.0f, 1e-6f);
}

TEST(BeerLaw, HalfTransmissionGivesLogTwo)
{
    std::vector<float> c{32768.0f};
    beer_law(c, BeerLawScalar{0.0f, 65536.0f});
    EXPECT_NEAR(c[0], std::log(2.0f), 1e-5f);
}

TEST(BeerLaw, DarkOffsetIsSubtracted)
{
    // (lambda - dark) / (blank - dark) = (300-100)/(500-100) = 0.5
    std::vector<float> c{300.0f};
    beer_law(c, BeerLawScalar{100.0f, 500.0f});
    EXPECT_NEAR(c[0], std::log(2.0f), 1e-5f);
}

TEST(BeerLaw, DeadPixelStaysFinite)
{
    std::vector<float> c{0.0f, -5.0f};
    beer_law(c, BeerLawScalar{100.0f, 500.0f});
    EXPECT_TRUE(std::isfinite(c[0]));
    EXPECT_TRUE(std::isfinite(c[1]));
    EXPECT_GT(c[0], 10.0f);  // large attenuation, not inf
}

TEST(BeerLaw, RejectsDegenerateCalibration)
{
    std::vector<float> c{1.0f};
    EXPECT_THROW(beer_law(c, BeerLawScalar{5.0f, 5.0f}), std::invalid_argument);
}

TEST(BeerLaw, PerPixelCalibration)
{
    std::vector<float> counts{50.0f, 200.0f, 50.0f, 200.0f};  // two 2-pixel projections
    std::vector<float> dark{0.0f, 100.0f};
    std::vector<float> blank{100.0f, 300.0f};
    beer_law(counts, dark, blank);
    EXPECT_NEAR(counts[0], std::log(2.0f), 1e-5f);
    EXPECT_NEAR(counts[1], std::log(2.0f), 1e-5f);
    EXPECT_NEAR(counts[2], counts[0], 1e-6f);  // same calibration per pixel position
}

TEST(BeerLaw, PerPixelRejectsMismatchedSizes)
{
    std::vector<float> counts{1.0f, 2.0f, 3.0f};
    std::vector<float> dark{0.0f, 0.0f};
    std::vector<float> blank{10.0f, 10.0f};
    EXPECT_THROW(beer_law(counts, dark, blank), std::invalid_argument);
}

TEST(BeerLaw, RoundTripWithInverse)
{
    const BeerLawScalar cal{200.0f, 60000.0f};
    std::vector<float> p{0.0f, 0.3f, 1.7f, 4.2f};
    std::vector<float> counts = p;
    inverse_beer_law(counts, cal);
    beer_law(counts, cal);
    for (std::size_t i = 0; i < p.size(); ++i) EXPECT_NEAR(counts[i], p[i], 1e-3f);
}

using testutil::ScopedThreads;

TEST(BeerLaw, IsBitwiseSerialAtAnyThreadCount)
{
    // 3 projections of 251 x 100 pixels: past the parallel threshold, with
    // dead pixels and a per-pixel calibration.
    const std::size_t pix = 251 * 100;
    std::vector<float> counts(3 * pix), dark(pix), blank(pix);
    std::mt19937 rng(7);
    std::uniform_real_distribution<float> dist(-50.0f, 70000.0f);
    for (float& c : counts) c = dist(rng);
    for (std::size_t p = 0; p < pix; ++p) {
        dark[p] = static_cast<float>(p % 13);
        blank[p] = 60000.0f + static_cast<float>(p % 97);
    }
    const BeerLawScalar cal{12.0f, 65000.0f};

    // The single-threaded reference, written out: Eq. 1 with the clamp.
    const auto eq1 = [](float c, float d, float b) {
        const float denom = b - d;
        float t = (c - d) / denom;
        t = std::max(t, 1e-6f);
        return -std::log(t);
    };
    std::vector<float> want_scalar(counts.size()), want_pixel(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        want_scalar[i] = eq1(counts[i], cal.dark, cal.blank);
        want_pixel[i] = eq1(counts[i], dark[i % pix], blank[i % pix]);
    }
    // The inverse (raw-count synthesis) on line integrals from 0 to past
    // the clamp's attenuation.
    std::vector<float> lines(counts.size()), want_inverse(counts.size());
    std::uniform_real_distribution<float> att(0.0f, 16.0f);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        lines[i] = att(rng);
        want_inverse[i] = cal.dark + (cal.blank - cal.dark) * std::exp(-lines[i]);
    }

    for (const int threads : {1, 2, 3, 4}) {
        ScopedThreads pin(threads);
        std::vector<float> scalar = counts, pixel = counts, inverse = lines;
        beer_law(scalar, cal);
        beer_law(pixel, dark, blank);
        inverse_beer_law(inverse, cal);
        EXPECT_EQ(std::memcmp(scalar.data(), want_scalar.data(), scalar.size() * sizeof(float)), 0)
            << threads << " threads";
        EXPECT_EQ(std::memcmp(pixel.data(), want_pixel.data(), pixel.size() * sizeof(float)), 0)
            << threads << " threads";
        EXPECT_EQ(
            std::memcmp(inverse.data(), want_inverse.data(), inverse.size() * sizeof(float)), 0)
            << threads << " threads";
    }
}

/// The reference Eq. 1: -std::log of the clamped ratio, so the host
/// libm's logf.
float eq1_libm(float c, float dark, float blank)
{
    return -std::log(std::max((c - dark) / (blank - dark), 1e-6f));
}

std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }

TEST(BeerLaw, LaneAndElementFormsAreLibmOnEveryCount)
{
    // Every 32-bit pattern as a count, with dark 0 and blank 1 so that the
    // ratio is the count: every positive normal the clamp lets through,
    // +-0, negatives, subnormals, +-inf and NaNs of both signs.  Both
    // forms must give -std::log's bits, -0 for a count equal to blank
    // included.  Sanitized and unoptimised builds sweep every 64th block.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || !defined(__OPTIMIZE__)
    constexpr index_t kStride = 64;
#else
    constexpr index_t kStride = 1;
#endif
    constexpr std::size_t kBlock = std::size_t{1} << 16;
    constexpr index_t kBlocks = index_t{1} << 16;
    const std::size_t width = parallel::width();
    std::vector<float> scratch(width * 2 * kBlock);
    std::atomic<std::uint64_t> lane_bad{0}, element_bad{0};
    std::atomic<std::uint32_t> example{0};
    const simd::VecF dark = simd::splat(0.0f), blank = simd::splat(1.0f);
    parallel::parallel_for(kBlocks / kStride, 1, [&](index_t b, std::size_t slot) {
        float* const in = scratch.data() + slot * 2 * kBlock;
        float* const lanes = in + kBlock;
        const std::uint32_t first = static_cast<std::uint32_t>(b * kStride) << 16;
        for (std::size_t i = 0; i < kBlock; ++i)
            in[i] = std::bit_cast<float>(first + static_cast<std::uint32_t>(i));
        for (std::size_t i = 0; i < kBlock; i += simd::kLanes)
            simd::store(lanes + i, beer_law_lanes(simd::load(in + i), dark, blank));
        std::uint64_t lane_miss = 0, element_miss = 0;
        for (std::size_t i = 0; i < kBlock; ++i) {
            const std::uint32_t want = bits(eq1_libm(in[i], 0.0f, 1.0f));
            const bool lane_ok = bits(lanes[i]) == want;
            const bool element_ok = bits(beer_law_texel(in[i], 0.0f, 1.0f)) == want;
            lane_miss += lane_ok ? 0 : 1;
            element_miss += element_ok ? 0 : 1;
            if (!lane_ok || !element_ok) example = bits(in[i]);
        }
        lane_bad += lane_miss;
        element_bad += element_miss;
    });
    EXPECT_EQ(lane_bad.load(), 0u) << "e.g. count bits 0x" << std::hex << example.load();
    EXPECT_EQ(element_bad.load(), 0u) << "e.g. count bits 0x" << std::hex << example.load();
    EXPECT_EQ(bits(beer_law_texel(1.0f, 0.0f, 1.0f)), bits(-0.0f));
}

TEST(BeerLaw, OverloadsAreTheElementFormAtEveryWidth)
{
    // Widths around the lane counts (4, 8, 16) and the detector widths of
    // the tests, three projections each, with the counts Eq. 1 clamps or
    // propagates: 0, negatives, equal to and above blank, NaN, +-inf.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const BeerLawScalar cal{12.0f, 65000.0f};
    const float special[] = {0.0f, -5.0f, cal.blank, 70000.0f, nan, -nan, inf, -inf, cal.dark};
    std::mt19937 rng(11);
    std::uniform_real_distribution<float> dist(-50.0f, 70000.0f);
    for (const std::size_t pix : {1, 15, 16, 17, 84, 233, 251}) {
        std::vector<float> counts(3 * pix), dark(pix), blank(pix);
        for (float& c : counts) c = dist(rng);
        for (std::size_t i = 0; i < counts.size(); i += 3) counts[i] = special[(i / 3) % 9];
        for (std::size_t p = 0; p < pix; ++p) {
            dark[p] = static_cast<float>(p % 13);
            blank[p] = p % 5 == 0 ? 65000.0f : 60000.0f + static_cast<float>(p % 97);
        }
        std::vector<float> want_scalar(counts.size()), want_pixel(counts.size());
        for (std::size_t i = 0; i < counts.size(); ++i) {
            want_scalar[i] = beer_law_texel(counts[i], cal.dark, cal.blank);
            want_pixel[i] = beer_law_texel(counts[i], dark[i % pix], blank[i % pix]);
        }
        for (const int threads : {1, 4}) {
            ScopedThreads pin(threads);
            std::vector<float> scalar = counts, pixel = counts;
            beer_law(scalar, cal);
            beer_law(pixel, dark, blank);
            EXPECT_EQ(std::memcmp(scalar.data(), want_scalar.data(), scalar.size() * sizeof(float)),
                      0)
                << "width " << pix << ", " << threads << " threads";
            EXPECT_EQ(std::memcmp(pixel.data(), want_pixel.data(), pixel.size() * sizeof(float)), 0)
                << "width " << pix << ", " << threads << " threads";
        }
    }
}

TEST(BeerLaw, StackOverloadProcessesEveryPixel)
{
    ProjectionStack st(2, 3, 4, 32768.0f);
    beer_law(st, BeerLawScalar{0.0f, 65536.0f});
    for (index_t s = 0; s < 2; ++s)
        for (index_t v = 0; v < 3; ++v)
            for (index_t u = 0; u < 4; ++u) EXPECT_NEAR(st.at(s, v, u), std::log(2.0f), 1e-5f);
}

}  // namespace
}  // namespace xct
