// Beer-law preprocessing tests (Eq. 1) and its synthetic inverse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

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
