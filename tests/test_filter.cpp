// Filtering-computation tests (Eq. 2): ramp kernel taps, apodisation
// windows, cosine weighting and the row-parallel engine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <optional>
#include <random>

#include "core/names.hpp"
#include "core/preprocess.hpp"
#include "core/scratch.hpp"
#include "fft/fft.hpp"
#include "filter/parker.hpp"
#include "filter/ramp.hpp"
#include "scoped_threads.hpp"
#include "telemetry/metrics.hpp"

namespace xct::filter {
namespace {

CbctGeometry geo()
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = 64;
    g.nu = 64;
    g.nv = 32;
    g.du = 0.5;
    g.dv = 0.5;
    g.vol = {32, 32, 32};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x);
    return g;
}

TEST(RampKernel, CentreTap)
{
    const auto taps = ramp_kernel(8, 0.5);
    ASSERT_EQ(taps.size(), 17u);
    EXPECT_NEAR(taps[8], 1.0 / (4.0 * 0.5), 1e-7);
}

TEST(RampKernel, OddTapsFollowInverseSquare)
{
    const double du = 0.25;
    const auto taps = ramp_kernel(8, du);
    const double pi2 = std::numbers::pi * std::numbers::pi;
    for (int n = 1; n <= 8; n += 2) {
        EXPECT_NEAR(taps[static_cast<std::size_t>(8 + n)], -1.0 / (pi2 * n * n * du), 1e-7);
        EXPECT_NEAR(taps[static_cast<std::size_t>(8 - n)], -1.0 / (pi2 * n * n * du), 1e-7);
    }
}

TEST(RampKernel, EvenTapsAreZero)
{
    const auto taps = ramp_kernel(9, 1.0);
    for (int n = 2; n <= 9; n += 2) {
        EXPECT_FLOAT_EQ(taps[static_cast<std::size_t>(9 + n)], 0.0f);
        EXPECT_FLOAT_EQ(taps[static_cast<std::size_t>(9 - n)], 0.0f);
    }
}

TEST(RampKernel, SumApproachesZero)
{
    // The ideal ramp kernel integrates to zero (no DC response); the
    // truncated sum decays like 1/half_width.
    const auto taps = ramp_kernel(512, 1.0);
    double sum = 0.0;
    for (float t : taps) sum += t;
    EXPECT_NEAR(sum, 0.0, 1e-3);
}

TEST(WindowGain, ValuesAtDcAndNyquist)
{
    EXPECT_DOUBLE_EQ(window_gain(Window::RamLak, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(window_gain(Window::RamLak, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(window_gain(Window::Hann, 0.0), 1.0);
    EXPECT_NEAR(window_gain(Window::Hann, 1.0), 0.0, 1e-12);
    EXPECT_NEAR(window_gain(Window::Cosine, 1.0), 0.0, 1e-12);
    EXPECT_NEAR(window_gain(Window::Hamming, 1.0), 0.08, 1e-12);
    EXPECT_NEAR(window_gain(Window::SheppLogan, 1.0), 2.0 / std::numbers::pi, 1e-12);
    EXPECT_DOUBLE_EQ(window_gain(Window::SheppLogan, 0.0), 1.0);
}

TEST(WindowGain, MonotoneDecreasing)
{
    for (Window w : {Window::SheppLogan, Window::Cosine, Window::Hamming, Window::Hann}) {
        double prev = window_gain(w, 0.0);
        for (double x = 0.1; x <= 1.0; x += 0.1) {
            const double g = window_gain(w, x);
            EXPECT_LE(g, prev + 1e-12);
            prev = g;
        }
    }
}

TEST(WindowFromName, ParsesAllNames)
{
    EXPECT_EQ(window_from_name("ram-lak"), Window::RamLak);
    EXPECT_EQ(window_from_name("ramp"), Window::RamLak);
    EXPECT_EQ(window_from_name("shepp-logan"), Window::SheppLogan);
    EXPECT_EQ(window_from_name("cosine"), Window::Cosine);
    EXPECT_EQ(window_from_name("hamming"), Window::Hamming);
    EXPECT_EQ(window_from_name("hann"), Window::Hann);
    EXPECT_THROW(window_from_name("boxcar"), std::invalid_argument);
}

TEST(FilterEngine, ConstantRowFiltersToNearZero)
{
    const CbctGeometry g = geo();
    FilterEngine eng(g);
    std::vector<float> row(static_cast<std::size_t>(g.nu), 1.0f);
    eng.apply_row(row, g.nv / 2);
    // Ramp removes DC; interior values must be small relative to the input
    // scale times the FDK normalisation.
    const double scale = std::numbers::pi / static_cast<double>(g.num_proj) * g.magnification();
    for (index_t u = g.nu / 4; u < 3 * g.nu / 4; ++u)
        EXPECT_LT(std::abs(row[static_cast<std::size_t>(u)]), 0.05 * scale) << "u=" << u;
}

TEST(FilterEngine, DeltaResponseHasRampShape)
{
    const CbctGeometry g = geo();
    FilterEngine eng(g);
    const index_t c = g.nu / 2;
    std::vector<float> row(static_cast<std::size_t>(g.nu), 0.0f);
    row[static_cast<std::size_t>(c)] = 1.0f;
    eng.apply_row(row, g.nv / 2);
    // Centre / first-neighbour ratio of the band-limited ramp: -pi^2/4.
    const double ratio = row[static_cast<std::size_t>(c)] / row[static_cast<std::size_t>(c + 1)];
    EXPECT_NEAR(ratio, -std::numbers::pi * std::numbers::pi / 4.0, 0.05);
    // Symmetry around the impulse (centre pixel weight applies equally).
    EXPECT_NEAR(row[static_cast<std::size_t>(c - 1)], row[static_cast<std::size_t>(c + 1)], 1e-6f);
}

TEST(FilterEngine, CosineWeightReducesObliqueRays)
{
    const CbctGeometry g = geo();
    FilterEngine eng(g);
    // Same impulse at the detector centre vs at a corner-adjacent row: the
    // oblique one is attenuated by the Eq. 2 weight.
    std::vector<float> centre(static_cast<std::size_t>(g.nu), 0.0f);
    std::vector<float> edge(static_cast<std::size_t>(g.nu), 0.0f);
    centre[static_cast<std::size_t>(g.nu / 2)] = 1.0f;
    edge[static_cast<std::size_t>(g.nu / 2)] = 1.0f;
    eng.apply_row(centre, g.nv / 2);
    eng.apply_row(edge, 0);
    EXPECT_LT(std::abs(edge[static_cast<std::size_t>(g.nu / 2)]),
              std::abs(centre[static_cast<std::size_t>(g.nu / 2)]));
}

TEST(FilterEngine, StackApplyMatchesRowApply)
{
    const CbctGeometry g = geo();
    FilterEngine eng(g, Window::Hann);
    ProjectionStack a(3, Range{4, 12}, g.nu);
    for (index_t s = 0; s < 3; ++s)
        for (index_t v = 4; v < 12; ++v)
            for (index_t u = 0; u < g.nu; ++u)
                a.at(s, v, u) = static_cast<float>((s + 1) * 100 + v * 10) * 0.01f +
                                static_cast<float>(u % 7) * 0.1f;
    ProjectionStack b = a;
    eng.apply(a);
    for (index_t s = 0; s < 3; ++s)
        for (index_t v = 4; v < 12; ++v) eng.apply_row(b.row(s, v), v);
    // apply() uses the packed-pair fp32 FFT while apply_row packs a single
    // real row, so agreement is to accumulated float rounding over the
    // padded transform (empirically < 1e-5 on this size; 5e-5 with margin),
    // not bitwise.
    for (index_t s = 0; s < 3; ++s)
        for (index_t v = 4; v < 12; ++v)
            for (index_t u = 0; u < g.nu; ++u)
                ASSERT_NEAR(a.at(s, v, u), b.at(s, v, u), 5e-5f) << s << "," << v << "," << u;
}

TEST(FilterEngine, PairPackedFftMatchesSeparateRows)
{
    const CbctGeometry g = geo();
    FilterEngine eng(g);
    std::vector<float> a(static_cast<std::size_t>(g.nu)), b(static_cast<std::size_t>(g.nu));
    for (index_t u = 0; u < g.nu; ++u) {
        a[static_cast<std::size_t>(u)] = std::sin(0.3 * static_cast<double>(u)) + 1.0f;
        b[static_cast<std::size_t>(u)] = std::cos(0.7 * static_cast<double>(u)) - 0.5f;
    }
    std::vector<float> a2 = a, b2 = b;
    eng.apply_row_pair(a, 5, b, 9);
    eng.apply_row(a2, 5);
    eng.apply_row(b2, 9);
    // Both sides run the fp32 transform; the pair packing only changes
    // which rounding errors accumulate, bounded by a few ulp of the row
    // scale over the padded length (1e-5 holds with ~10x margin here).
    for (index_t u = 0; u < g.nu; ++u) {
        ASSERT_NEAR(a[static_cast<std::size_t>(u)], a2[static_cast<std::size_t>(u)], 1e-5f);
        ASSERT_NEAR(b[static_cast<std::size_t>(u)], b2[static_cast<std::size_t>(u)], 1e-5f);
    }
}

TEST(FilterEngine, OddRowCountFiltersEveryRow)
{
    const CbctGeometry g = geo();
    FilterEngine eng(g);
    ProjectionStack stack(2, Range{0, 5}, g.nu, 1.0f);  // odd row count
    eng.apply(stack);
    // DC removed everywhere, including the unpaired last row.
    for (index_t s = 0; s < 2; ++s)
        for (index_t v = 0; v < 5; ++v)
            EXPECT_LT(std::abs(stack.at(s, v, g.nu / 2)), 0.05f) << s << "," << v;
}

TEST(FilterEngine, HannSuppressesNyquistMoreThanRamLak)
{
    const CbctGeometry g = geo();
    FilterEngine ramlak(g, Window::RamLak);
    FilterEngine hann(g, Window::Hann);
    std::vector<float> a(static_cast<std::size_t>(g.nu));
    for (index_t u = 0; u < g.nu; ++u) a[static_cast<std::size_t>(u)] = (u % 2 == 0) ? 1.0f : -1.0f;
    std::vector<float> b = a;
    ramlak.apply_row(a, g.nv / 2);
    hann.apply_row(b, g.nv / 2);
    double ea = 0.0, eb = 0.0;
    for (index_t u = g.nu / 4; u < 3 * g.nu / 4; ++u) {
        ea += a[static_cast<std::size_t>(u)] * a[static_cast<std::size_t>(u)];
        eb += b[static_cast<std::size_t>(u)] * b[static_cast<std::size_t>(u)];
    }
    EXPECT_LT(eb, 0.05 * ea);
}

TEST(FilterEngine, ExtraScaleIsLinear)
{
    const CbctGeometry g = geo();
    FilterEngine one(g, Window::RamLak, 1.0);
    FilterEngine two(g, Window::RamLak, 2.0);
    std::vector<float> a(static_cast<std::size_t>(g.nu), 0.0f);
    a[10] = 1.0f;
    std::vector<float> b = a;
    one.apply_row(a, 3);
    two.apply_row(b, 3);
    for (index_t u = 0; u < g.nu; ++u)
        ASSERT_NEAR(b[static_cast<std::size_t>(u)], 2.0f * a[static_cast<std::size_t>(u)], 1e-6f);
}

// ---- padding-independent oracle -----------------------------------------

/// Direct O(Nu^2) double-precision evaluation of Eq. 2 for one row: the
/// cosine weight, then the linear (never circular) convolution with the
/// ramp_kernel taps and the FDK scale.  Shares no padding, transform or
/// spectrum with FilterEngine, so an aliasing mistake shows here.
std::vector<double> direct_filter(const CbctGeometry& g, std::span<const float> row, index_t v)
{
    const double angular = g.short_scan()
                               ? g.scan_range / static_cast<double>(g.num_proj)
                               : std::numbers::pi / static_cast<double>(g.num_proj);
    const double scale = angular * (g.dsd / g.dso);
    const double cu = (static_cast<double>(g.nu) - 1.0) / 2.0 + g.sigma_u;
    const double cv = (static_cast<double>(g.nv) - 1.0) / 2.0 + g.sigma_v;
    const double pv = g.dv * (static_cast<double>(v) - cv);
    std::vector<double> x(row.size());
    for (index_t u = 0; u < g.nu; ++u) {
        const double pu = g.du * (static_cast<double>(u) - cu);
        x[static_cast<std::size_t>(u)] = row[static_cast<std::size_t>(u)] * g.dsd /
                                         std::sqrt(pu * pu + pv * pv + g.dsd * g.dsd);
    }
    const std::vector<float> taps = ramp_kernel(g.nu, g.du);
    std::vector<double> y(row.size(), 0.0);
    for (index_t i = 0; i < g.nu; ++i)
        for (index_t j = 0; j < g.nu; ++j) {
            const double tap = taps[static_cast<std::size_t>(g.nu + i - j)];
            y[static_cast<std::size_t>(i)] += x[static_cast<std::size_t>(j)] * tap * scale;
        }
    return y;
}

/// apply()'s bitwise oracle, written out: apply_row_pair on rows (2p,
/// 2p + 1) counted from the band start, apply_row on an odd last row.
ProjectionStack filter_pairwise(const FilterEngine& eng, ProjectionStack stack)
{
    const Range band = stack.band();
    for (index_t s = 0; s < stack.views(); ++s) {
        index_t v = band.lo;
        for (; v + 1 < band.hi; v += 2)
            eng.apply_row_pair(stack.row(s, v), v, stack.row(s, v + 1), v + 1);
        if (v < band.hi) eng.apply_row(stack.row(s, v), v);
    }
    return stack;
}

bool bitwise_equal(const ProjectionStack& a, const ProjectionStack& b)
{
    return a.span().size() == b.span().size() &&
           std::memcmp(a.span().data(), b.span().data(), a.span().size_bytes()) == 0;
}

CbctGeometry oracle_geo(index_t nu, bool short_scan)
{
    CbctGeometry g = geo();
    g.nu = nu;
    g.nv = 7;
    g.du = 0.4;
    g.sigma_u = 1.75;
    g.sigma_v = -0.6;
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x);
    if (short_scan) g.scan_range = std::numbers::pi + 2.0 * std::atan(0.5 * nu * g.du / g.dsd);
    return g;
}

struct OracleCase {
    index_t nu;
    bool short_scan;
};

void PrintTo(const OracleCase& c, std::ostream* os)
{
    *os << "Nu=" << c.nu << (c.short_scan ? " short scan" : "");
}

class FilterOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(FilterOracle, MatchesDirectConvolutionWithoutAliasing)
{
    const CbctGeometry g = oracle_geo(GetParam().nu, GetParam().short_scan);
    ASSERT_EQ(g.short_scan(), GetParam().short_scan);
    const FilterEngine eng(g);
    EXPECT_EQ(eng.padded_len(), fft::next_pow2(2 * g.nu));

    // Rows 1..5 of 7: two packed pairs plus the odd remainder row.
    ProjectionStack in(2, Range{1, 6}, g.nu);
    std::mt19937 rng(static_cast<std::uint32_t>(g.nu));
    std::uniform_real_distribution<float> dist(0.0f, 3.0f);
    for (float& v : in.span()) v = dist(rng);
    ProjectionStack fast = in;
    eng.apply(fast);
    EXPECT_TRUE(bitwise_equal(fast, filter_pairwise(eng, in)));

    // Bounds relative to the largest oracle output of the stack.  The fp32
    // path carries one rounding per FFT stage over log2(2 Nu) stages plus
    // the fp32 weight and spectrum: measured <= 3.2e-7 up to Nu = 256, so
    // 4e-6 keeps > 10x margin.  The double reference path only rounds the
    // weight and the result to fp32: measured <= 1.4e-7, bound 1.5e-6.
    // A transform padded below 2 Nu whose wrap reaches the outputs misses
    // by 5e-3 .. 9e-2 on these widths.
    constexpr double kFastBound = 4e-6;
    constexpr double kReferenceBound = 1.5e-6;
    double peak = 0.0, err_fast = 0.0, err_ref = 0.0;
    for (index_t s = 0; s < in.views(); ++s)
        for (index_t v = in.band().lo; v < in.band().hi; ++v) {
            const std::vector<double> want = direct_filter(g, in.row(s, v), v);
            std::vector<float> ref(in.row(s, v).begin(), in.row(s, v).end());
            eng.apply_row_reference(ref, v);
            for (index_t u = 0; u < g.nu; ++u) {
                const std::size_t k = static_cast<std::size_t>(u);
                peak = std::max(peak, std::abs(want[k]));
                err_fast = std::max(err_fast, std::abs(fast.at(s, v, u) - want[k]));
                err_ref = std::max(err_ref, std::abs(ref[k] - want[k]));
            }
        }
    ASSERT_GT(peak, 0.0);
    EXPECT_LE(err_fast, kFastBound * peak) << "Nu=" << g.nu << " rel " << err_fast / peak;
    EXPECT_LE(err_ref, kReferenceBound * peak) << "Nu=" << g.nu << " rel " << err_ref / peak;
}

// 128 and 256 make 2 Nu a power of two, so the n = +-Nu taps wrap onto one
// circular index; 125, 233 and 251 pad past 2 Nu.
INSTANTIATE_TEST_SUITE_P(Widths, FilterOracle,
                         ::testing::Values(OracleCase{2, false}, OracleCase{3, false},
                                           OracleCase{64, false}, OracleCase{125, false},
                                           OracleCase{128, false}, OracleCase{233, false},
                                           OracleCase{251, false}, OracleCase{256, false},
                                           OracleCase{128, true}, OracleCase{251, true}),
                         [](const ::testing::TestParamInfo<OracleCase>& info) {
                             return "Nu" + std::to_string(info.param.nu) +
                                    (info.param.short_scan ? "ShortScan" : "");
                         });

TEST(FilterOracle, SingleColumnDetectorIsRejected)
{
    // Nu = 1 has no valid geometry (CbctGeometry::validate needs 2x2), so
    // the smallest width the oracle can reach is Nu = 2.
    EXPECT_THROW(FilterEngine(oracle_geo(1, false)), std::invalid_argument);
}

TEST(FilterEngine, BatchedApplyIsBitwiseThePairPath)
{
    // Every window and a short scan; bands starting at even and odd rows
    // with even and odd row counts; 1 to 24 tasks, so the task count is
    // below a batch, a multiple of it (8, 16, 24) or neither.
    std::mt19937 rng(29);
    std::uniform_real_distribution<float> dist(0.0f, 3.0f);
    for (const index_t nu : {2, 3, 64, 125, 128, 233, 251, 256})
        for (const Window w : {Window::RamLak, Window::SheppLogan, Window::Cosine, Window::Hamming,
                               Window::Hann}) {
            const CbctGeometry g = oracle_geo(nu, w == Window::Hann);
            const FilterEngine eng(g, w);
            for (const Range band : {Range{0, 6}, Range{1, 7}, Range{2, 3}, Range{3, 6}})
                for (const index_t views : {1, 2, 4, 5, 8}) {
                    ProjectionStack in(views, band, nu);
                    for (float& v : in.span()) v = dist(rng);
                    ProjectionStack fast = in;
                    eng.apply(fast);
                    EXPECT_TRUE(bitwise_equal(fast, filter_pairwise(eng, in)))
                        << "Nu=" << nu << " window " << static_cast<int>(w) << " band ["
                        << band.lo << ", " << band.hi << ") views " << views;
                }
        }
}

TEST(FilterEngine, ApplyIsBitwiseSerialAtAnyThreadCount)
{
    // 37 tasks: four full batches and a short one, spread differently over
    // each team size.  A warm repeat at each size leaves the heap alone.
    const CbctGeometry g = geo();
    const FilterEngine eng(g, Window::SheppLogan);
    ProjectionStack in(37, Range{3, 5}, g.nu);
    std::mt19937 rng(31);
    std::uniform_real_distribution<float> dist(-1.0f, 2.0f);
    for (float& v : in.span()) v = dist(rng);
    const ProjectionStack want = filter_pairwise(eng, in);
    for (const int threads : {1, 2, 3, 4}) {
        testutil::ScopedThreads pin(threads);
        ProjectionStack got = in;
        eng.apply(got);
        EXPECT_TRUE(bitwise_equal(got, want)) << threads << " threads";
        const std::uint64_t before = scratch::heap_events();
        got = in;
        eng.apply(got);
        EXPECT_EQ(scratch::heap_events() - before, 0u) << threads << " threads";
    }
}

// ---- the prologue: Eq. 1 and Parker inside the pack ---------------------

/// Raw counts around a blank of 50000, with the texels Eq. 1 clamps or
/// propagates: exact zeros, negatives, counts above blank and a NaN.
ProjectionStack raw_counts(index_t views, Range band, index_t nu)
{
    ProjectionStack s(views, band, nu);
    std::mt19937 rng(43);
    std::uniform_real_distribution<float> dist(-500.0f, 60000.0f);
    const std::span<float> all = s.span();
    for (float& c : all) c = dist(rng);
    for (std::size_t i = 0; i < all.size(); i += 37) all[i] = 0.0f;
    for (std::size_t i = 5; i < all.size(); i += 41) all[i] = -1.0f;
    for (std::size_t i = 11; i < all.size(); i += 53) all[i] = 70000.0f;
    all[all.size() / 2] = std::numeric_limits<float>::quiet_NaN();
    return s;
}

CbctGeometry parker_geo(index_t nu, bool short_scan)
{
    CbctGeometry g = oracle_geo(nu, false);
    if (short_scan) g.scan_range = std::numbers::pi + 2.0 * fan_half_angle(g) + 0.05;
    return g;
}

TEST(FilterEngine, PrologueIsBitwiseBeerLawThenParkerThenApply)
{
    // 37 views of 5 rows: 111 tasks in 14 batches, spread differently over
    // each team size.  Eq. 1 alone, Parker alone and both, full and short.
    const BeerLawScalar cal{10.0f, 50000.0f};
    const Range views{5, 42};
    for (const bool short_scan : {false, true}) {
        const CbctGeometry g = parker_geo(125, short_scan);
        const FilterEngine eng(g, Window::SheppLogan);
        std::optional<ParkerWeights> pw;
        if (short_scan) pw.emplace(g, views);
        const ProjectionStack in = raw_counts(views.length(), Range{1, 6}, g.nu);
        for (const bool counts : {false, true}) {
            if (!counts && !pw) continue;
            ProjectionStack want = in;
            if (counts) beer_law(want, cal);
            if (pw) pw->apply(want);
            eng.apply(want);
            const Prologue pre{counts ? &cal : nullptr, pw ? &*pw : nullptr};
            for (const int threads : {1, 2, 3, 4}) {
                testutil::ScopedThreads pin(threads);
                ProjectionStack got = in;
                eng.apply(got, pre);
                EXPECT_TRUE(bitwise_equal(got, want))
                    << (short_scan ? "short" : "full") << " scan, Eq. 1 " << counts << ", "
                    << threads << " threads";
            }
        }
    }
}

TEST(FilterEngine, PrologueIsTheElementFormAtEveryLaneTail)
{
    // Widths around the lane counts (4, 8, 16) and the tests' detectors,
    // from 2, the narrowest detector a geometry accepts: the pack's lanes
    // and its element tail must both be beer_law_texel, bit for bit, on
    // counts of 0, negatives, equal to and above blank, NaN and +-inf
    // (each in a row of its own, as the transform spreads them).
    const BeerLawScalar cal{10.0f, 50000.0f};
    const float inf = std::numeric_limits<float>::infinity();
    const float special[] = {0.0f, -7.0f, cal.blank, 65000.0f,
                             std::numeric_limits<float>::quiet_NaN(), inf, -inf};
    for (const index_t nu : {2, 15, 16, 17, 84, 233, 251}) {
        const CbctGeometry g = oracle_geo(nu, false);
        const FilterEngine eng(g, Window::SheppLogan);
        ProjectionStack in = raw_counts(9, Range{1, 6}, nu);
        for (std::size_t k = 0; k < std::size(special); ++k) {
            const std::span<float> row =
                in.row(static_cast<index_t>(k), 1 + static_cast<index_t>(k % 5));
            for (std::size_t u = k % 2; u < row.size(); u += 3) row[u] = special[k];
        }
        ProjectionStack want = in;
        for (float& c : want.span()) c = beer_law_texel(c, cal.dark, cal.blank);
        eng.apply(want);
        for (const int threads : {1, 4}) {
            testutil::ScopedThreads pin(threads);
            ProjectionStack got = in;
            eng.apply(got, Prologue{&cal, nullptr});
            EXPECT_TRUE(bitwise_equal(got, want)) << "Nu=" << nu << ", " << threads << " threads";
        }
    }
}

TEST(FilterEngine, PrologueChecksRunBeforeTheStackIsTouched)
{
    const CbctGeometry g = parker_geo(64, true);
    const FilterEngine eng(g);
    const ParkerWeights four_views(g, Range{0, 4});
    const ProjectionStack in(5, Range{0, 4}, g.nu, 100.0f);
    ProjectionStack stack = in;
    const BeerLawScalar flat{5.0f, 5.0f};
    EXPECT_THROW(eng.apply(stack, Prologue{&flat, nullptr}), std::invalid_argument);
    EXPECT_THROW(eng.apply(stack, Prologue{nullptr, &four_views}), std::invalid_argument);
    EXPECT_TRUE(bitwise_equal(stack, in));
}

TEST(FilterEngine, CountsTwoTransformsPerPairAndPerOddRow)
{
    const CbctGeometry g = geo();
    const FilterEngine eng(g);
    telemetry::Counter& f32 = telemetry::registry().counter(names::kMetricFftTransformsF32);
    ProjectionStack stack(3, Range{4, 9}, g.nu, 1.0f);  // 2 pairs + 1 odd row per view
    const std::uint64_t before = f32.value();
    eng.apply(stack);
    EXPECT_EQ(f32.value() - before, 3u * 3u * 2u);
}

TEST(FilterEngine, RejectsABandOutsideTheDetector)
{
    const CbctGeometry g = geo();  // Nv = 32
    const FilterEngine eng(g);
    ProjectionStack past_the_end(4, Range{30, 34}, g.nu);
    EXPECT_THROW(eng.apply(past_the_end), std::invalid_argument);
}

TEST(FilterEngine, RejectsWrongRowWidth)
{
    const CbctGeometry g = geo();
    FilterEngine eng(g);
    std::vector<float> row(static_cast<std::size_t>(g.nu + 1), 0.0f);
    EXPECT_THROW(eng.apply_row(row, 0), std::invalid_argument);
}

}  // namespace
}  // namespace xct::filter
