// FFT substrate tests: transform correctness against a naive DFT,
// round-trip identities, convolution against direct summation, and the
// lane-batched fp32 transform against transform_f bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <random>
#include <vector>

#include "fft/fft.hpp"

namespace xct::fft {
namespace {

std::vector<std::complex<double>> naive_dft(std::span<const std::complex<double>> x, bool inverse)
{
    const std::size_t n = x.size();
    std::vector<std::complex<double>> out(n);
    const double sign = inverse ? 1.0 : -1.0;
    for (std::size_t k = 0; k < n; ++k) {
        std::complex<double> s{0.0, 0.0};
        for (std::size_t t = 0; t < n; ++t) {
            const double ang = sign * 2.0 * std::numbers::pi * static_cast<double>(k * t) /
                               static_cast<double>(n);
            s += x[t] * std::complex<double>(std::cos(ang), std::sin(ang));
        }
        out[k] = inverse ? s / static_cast<double>(n) : s;
    }
    return out;
}

TEST(NextPow2, Values)
{
    EXPECT_EQ(next_pow2(1), 1);
    EXPECT_EQ(next_pow2(2), 2);
    EXPECT_EQ(next_pow2(3), 4);
    EXPECT_EQ(next_pow2(1023), 1024);
    EXPECT_EQ(next_pow2(1024), 1024);
    EXPECT_THROW(next_pow2(0), std::invalid_argument);
}

TEST(IsPow2, Values)
{
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(64));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(12));
}

TEST(Transform, RejectsNonPowerOfTwo)
{
    std::vector<std::complex<double>> x(6);
    EXPECT_THROW(transform(x, false), std::invalid_argument);
}

TEST(Transform, SizeOneIsIdentity)
{
    std::vector<std::complex<double>> x{{3.0, -1.0}};
    transform(x, false);
    EXPECT_DOUBLE_EQ(x[0].real(), 3.0);
    EXPECT_DOUBLE_EQ(x[0].imag(), -1.0);
}

TEST(Transform, ImpulseHasFlatSpectrum)
{
    std::vector<std::complex<double>> x(8, {0.0, 0.0});
    x[0] = {1.0, 0.0};
    transform(x, false);
    for (const auto& v : x) {
        EXPECT_NEAR(v.real(), 1.0, 1e-12);
        EXPECT_NEAR(v.imag(), 0.0, 1e-12);
    }
}

TEST(Transform, DcSignalConcentratesInBinZero)
{
    std::vector<std::complex<double>> x(16, {2.0, 0.0});
    transform(x, false);
    EXPECT_NEAR(x[0].real(), 32.0, 1e-12);
    for (std::size_t k = 1; k < 16; ++k) EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-12);
}

class FftDftMatch : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftDftMatch, ForwardMatchesNaiveDft)
{
    const std::size_t n = GetParam();
    std::mt19937 rng(n);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<std::complex<double>> x(n);
    for (auto& v : x) v = {u(rng), u(rng)};
    const auto expect = naive_dft(x, false);
    transform(x, false);
    for (std::size_t k = 0; k < n; ++k) {
        ASSERT_NEAR(x[k].real(), expect[k].real(), 1e-9 * static_cast<double>(n));
        ASSERT_NEAR(x[k].imag(), expect[k].imag(), 1e-9 * static_cast<double>(n));
    }
}

TEST_P(FftDftMatch, RoundTripIsIdentity)
{
    const std::size_t n = GetParam();
    std::mt19937 rng(n + 1);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<std::complex<double>> x(n);
    for (auto& v : x) v = {u(rng), u(rng)};
    const auto orig = x;
    transform(x, false);
    transform(x, true);
    for (std::size_t k = 0; k < n; ++k) {
        ASSERT_NEAR(x[k].real(), orig[k].real(), 1e-10);
        ASSERT_NEAR(x[k].imag(), orig[k].imag(), 1e-10);
    }
}

INSTANTIATE_TEST_SUITE_P(Pow2Sizes, FftDftMatch, ::testing::Values(2u, 4u, 8u, 32u, 128u, 512u));

TEST(RealForward, PadsWithZeros)
{
    std::vector<float> sig{1.0f, 2.0f, 3.0f};
    const auto spec = real_forward(sig, 8);
    ASSERT_EQ(spec.size(), 8u);
    // DC bin = sum of samples.
    EXPECT_NEAR(spec[0].real(), 6.0, 1e-12);
    // Conjugate symmetry of a real signal.
    for (std::size_t k = 1; k < 4; ++k) {
        EXPECT_NEAR(spec[k].real(), spec[8 - k].real(), 1e-12);
        EXPECT_NEAR(spec[k].imag(), -spec[8 - k].imag(), 1e-12);
    }
}

std::vector<float> naive_convolve_same(std::span<const float> sig, std::span<const float> ker,
                                       index_t offset)
{
    std::vector<float> out(sig.size(), 0.0f);
    for (std::size_t i = 0; i < sig.size(); ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < ker.size(); ++j) {
            const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(i) +
                                       static_cast<std::ptrdiff_t>(offset) -
                                       static_cast<std::ptrdiff_t>(j);
            if (src >= 0 && src < static_cast<std::ptrdiff_t>(sig.size()))
                acc += static_cast<double>(sig[static_cast<std::size_t>(src)]) * ker[j];
        }
        out[i] = static_cast<float>(acc);
    }
    return out;
}

class ConvolveSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConvolveSweep, MatchesDirectSummation)
{
    const auto [siglen, kerlen] = GetParam();
    std::mt19937 rng(static_cast<unsigned>(siglen * 131 + kerlen));
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    std::vector<float> sig(static_cast<std::size_t>(siglen));
    std::vector<float> ker(static_cast<std::size_t>(kerlen));
    for (auto& v : sig) v = u(rng);
    for (auto& v : ker) v = u(rng);
    const index_t offset = (kerlen - 1) / 2;

    const auto fftres = convolve_same(sig, ker, offset);
    const auto direct = naive_convolve_same(sig, ker, offset);
    ASSERT_EQ(fftres.size(), direct.size());
    for (std::size_t i = 0; i < fftres.size(); ++i) ASSERT_NEAR(fftres[i], direct[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvolveSweep,
                         ::testing::Combine(::testing::Values(8, 33, 100, 257),
                                            ::testing::Values(1, 3, 15, 65)));

TEST(RowConvolver, ReusableAcrossRows)
{
    std::vector<float> ker{0.25f, 0.5f, 0.25f};
    RowConvolver conv(16, ker, 1);
    std::vector<float> a(16, 1.0f);
    conv.apply(a);
    // Interior of a constant signal convolved with a unit-sum kernel stays 1.
    for (std::size_t i = 1; i < 15; ++i) EXPECT_NEAR(a[i], 1.0f, 1e-5f);
    // Edges lose the out-of-range tap.
    EXPECT_NEAR(a[0], 0.75f, 1e-5f);
    EXPECT_NEAR(a[15], 0.75f, 1e-5f);
}

TEST(RowConvolver, RejectsWrongRowLength)
{
    std::vector<float> ker{1.0f};
    RowConvolver conv(8, ker, 0);
    std::vector<float> row(9, 0.0f);
    EXPECT_THROW(conv.apply(row), std::invalid_argument);
}

TEST(MultiplySpectra, RejectsSizeMismatch)
{
    std::vector<std::complex<double>> a(4), b(8);
    EXPECT_THROW(multiply_spectra(a, b), std::invalid_argument);
}

TEST(Transform, ReferencePathMatchesNaiveDft)
{
    // transform_reference is the retained seed algorithm (per-call twiddle
    // recurrence); it must stay exact so the planned paths can be bounded
    // against it.
    std::mt19937 rng(61);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<std::complex<double>> x(64);
    for (auto& c : x) c = {u(rng), u(rng)};
    const auto want = naive_dft(x, false);
    transform_reference(x, false);
    for (std::size_t k = 0; k < x.size(); ++k) {
        ASSERT_NEAR(x[k].real(), want[k].real(), 1e-9) << k;
        ASSERT_NEAR(x[k].imag(), want[k].imag(), 1e-9) << k;
    }
}

TEST(Transform, SinglePrecisionMatchesNaiveDft)
{
    std::mt19937 rng(62);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    std::vector<std::complex<float>> f(64);
    std::vector<std::complex<double>> d(64);
    for (std::size_t i = 0; i < f.size(); ++i) {
        f[i] = {u(rng), u(rng)};
        d[i] = std::complex<double>(f[i]);
    }
    const auto want = naive_dft(d, false);
    transform_f(f, false);
    for (std::size_t k = 0; k < f.size(); ++k)
        ASSERT_NEAR(std::abs(std::complex<double>(f[k]) - want[k]), 0.0, 1e-4) << k;
}

TEST(RealForward, SinglePrecisionIsPerBinRounding)
{
    // real_forward_f computes in double and rounds each bin once, so every
    // bin equals the float-cast of the double spectrum exactly.
    std::mt19937 rng(63);
    std::uniform_real_distribution<float> u(-2.0f, 2.0f);
    std::vector<float> sig(40);
    for (float& v : sig) v = u(rng);
    const auto d = real_forward(sig, 64);
    const auto f = real_forward_f(sig, 64);
    ASSERT_EQ(d.size(), f.size());
    for (std::size_t k = 0; k < d.size(); ++k) {
        ASSERT_EQ(f[k].real(), static_cast<float>(d[k].real())) << k;
        ASSERT_EQ(f[k].imag(), static_cast<float>(d[k].imag())) << k;
    }
}

// ---- lane-batched fp32 transform ------------------------------------------

/// Lane l's samples in transform_batch_f's block layout, sample i placed
/// at block `at[i]`.
void pack_lane(std::span<float> batch, std::size_t l, std::span<const std::complex<float>> x,
               std::span<const std::uint32_t> at)
{
    for (std::size_t i = 0; i < x.size(); ++i) {
        batch[2 * kBatch * at[i] + l] = x[i].real();
        batch[2 * kBatch * at[i] + kBatch + l] = x[i].imag();
    }
}

bool lane_equals(std::span<const float> batch, std::size_t l,
                 std::span<const std::complex<float>> want, float scale)
{
    for (std::size_t i = 0; i < want.size(); ++i) {
        const std::complex<float> got{batch[2 * kBatch * i + l] * scale,
                                      batch[2 * kBatch * i + kBatch + l] * scale};
        if (std::memcmp(&got, &want[i], sizeof(got)) != 0) return false;
    }
    return true;
}

TEST(TransformBatch, EveryLaneIsBitwiseTransformF)
{
    // Different data in every lane, signed zeros included; the caller's
    // share of the contract (bit-reversed input, 1/n after the inverse) is
    // done here as FilterEngine::apply does it.
    std::mt19937 rng(71);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    for (std::size_t n = 2; n <= 4096; n *= 2) {
        const Plan& plan = plan_for(static_cast<index_t>(n));
        for (const bool inverse : {false, true}) {
            std::vector<float> batch(2 * kBatch * n);
            std::vector<std::vector<std::complex<float>>> want(kBatch);
            for (std::size_t l = 0; l < kBatch; ++l) {
                want[l].resize(n);
                for (auto& c : want[l]) c = {u(rng), u(rng)};
                want[l][l % n] = {-0.0f, 0.0f};
                pack_lane(batch, l, want[l], plan.bitrev);
                transform_f(want[l], plan, inverse);
            }
            transform_batch_f(batch, plan, inverse, kBatch);
            const float scale = inverse ? static_cast<float>(1.0 / static_cast<double>(n)) : 1.0f;
            for (std::size_t l = 0; l < kBatch; ++l)
                EXPECT_TRUE(lane_equals(batch, l, want[l], scale))
                    << "n=" << n << (inverse ? " inverse" : " forward") << " lane " << l;
        }
    }
}

TEST(TransformBatch, MultiplyIsBitwiseMultiplySpectraInBitReversedOrder)
{
    std::mt19937 rng(73);
    std::uniform_real_distribution<float> u(-2.0f, 2.0f);
    const std::size_t n = 64;
    const Plan& plan = plan_for(static_cast<index_t>(n));
    std::vector<std::complex<float>> kernel(n);
    for (auto& c : kernel) c = {u(rng), u(rng)};
    std::vector<std::uint32_t> identity(n);
    for (std::size_t i = 0; i < n; ++i) identity[i] = static_cast<std::uint32_t>(i);

    std::vector<float> batch(2 * kBatch * n), out(batch.size());
    std::vector<std::vector<std::complex<float>>> want(kBatch);
    for (std::size_t l = 0; l < kBatch; ++l) {
        want[l].resize(n);
        for (auto& c : want[l]) c = {u(rng), u(rng)};
        pack_lane(batch, l, want[l], identity);
        multiply_spectra(want[l], kernel);
        // transform_f's permutation pass, which the batched multiply folds in.
        for (std::size_t i = 0; i < n; ++i)
            if (i < plan.bitrev[i]) std::swap(want[l][i], want[l][plan.bitrev[i]]);
    }
    multiply_spectra_batch(batch, kernel, plan, out);
    for (std::size_t l = 0; l < kBatch; ++l) EXPECT_TRUE(lane_equals(out, l, want[l], 1.0f)) << l;
}

TEST(TransformBatch, RejectsAMismatchedBuffer)
{
    const Plan& plan = plan_for(16);
    std::vector<float> batch(2 * kBatch * 16 - 1), out(2 * kBatch * 16);
    EXPECT_THROW(transform_batch_f(batch, plan, false, kBatch), std::invalid_argument);
    batch.resize(out.size());
    EXPECT_THROW(transform_batch_f(batch, plan, false, kBatch + 1), std::invalid_argument);
    EXPECT_THROW(multiply_spectra_batch(batch, std::vector<std::complex<float>>(8), plan, out),
                 std::invalid_argument);
}

}  // namespace
}  // namespace xct::fft
