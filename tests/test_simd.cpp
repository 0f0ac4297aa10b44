// Performance-layer tests (DESIGN.md §3e): the simd.hpp lane wrapper, the
// vectorised back-projection kernel vs the retained scalar Listing-1 loop
// (bounded) and vs the per-(view, row) vectorisation it replaced (bitwise),
// the fp32 filtering paths vs their double-precision references, the FFT
// plan cache, and the zero-allocation guarantee of the scratch pools on
// warm hot paths.
//
// Accuracy claims are property-style: randomized geometries (including the
// Table-4 calibration offsets sigma_u / sigma_v / sigma_cor), randomized
// sizes, with every bound stated relative to the field maximum and carrying
// margin over the empirically observed error.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "backproj/kernel.hpp"
#include "backproj/reference.hpp"
#include "core/decompose.hpp"
#include "core/scratch.hpp"
#include "core/simd.hpp"
#include "fft/fft.hpp"
#include "filter/ramp.hpp"
#include "scoped_threads.hpp"

namespace xct {
namespace {

float max_abs(std::span<const float> v)
{
    float m = 0.0f;
    for (float x : v) m = std::max(m, std::abs(x));
    return m;
}

// ---- lane wrapper ---------------------------------------------------------

TEST(SimdWrapper, BackendIsReported)
{
    EXPECT_GT(simd::kLanes, 0);
    const std::string name = simd::backend_name();
    EXPECT_TRUE(name == "avx512" || name == "avx2" || name == "generic") << name;
    EXPECT_EQ(simd::kGroups * simd::kGroup, simd::kLanes);
}

TEST(SimdWrapper, LoadStoreRoundTrip)
{
    std::array<float, simd::kLanes> in{}, out{};
    for (int i = 0; i < simd::kLanes; ++i) in[static_cast<std::size_t>(i)] = 0.5f * i - 1.0f;
    simd::store(out.data(), simd::load(in.data()));
    EXPECT_EQ(in, out);
}

TEST(SimdWrapper, IotaSplatArithmetic)
{
    std::array<float, simd::kLanes> out{};
    // (iota * 2 + 3) - 1  ->  2i + 2
    const simd::VecF v = simd::iota() * simd::splat(2.0f) + simd::splat(3.0f) - simd::splat(1.0f);
    simd::store(out.data(), v);
    for (int i = 0; i < simd::kLanes; ++i)
        EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i)], 2.0f * i + 2.0f) << i;
}

TEST(SimdWrapper, FmaddFloorMinMaxClamp)
{
    std::array<float, simd::kLanes> a{}, out{};
    for (int i = 0; i < simd::kLanes; ++i) a[static_cast<std::size_t>(i)] = 0.75f * i - 2.3f;
    const simd::VecF va = simd::load(a.data());

    simd::store(out.data(), simd::fmadd(va, simd::splat(2.0f), simd::splat(1.0f)));
    for (int i = 0; i < simd::kLanes; ++i)
        EXPECT_NEAR(out[static_cast<std::size_t>(i)], a[static_cast<std::size_t>(i)] * 2.0f + 1.0f,
                    1e-6f);

    simd::store(out.data(), simd::floor_(va));
    for (int i = 0; i < simd::kLanes; ++i)
        EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i)],
                        std::floor(a[static_cast<std::size_t>(i)]));

    simd::store(out.data(), simd::clamp(va, simd::splat(-1.0f), simd::splat(1.0f)));
    for (int i = 0; i < simd::kLanes; ++i)
        EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i)],
                        std::clamp(a[static_cast<std::size_t>(i)], -1.0f, 1.0f));

    simd::store(out.data(), simd::min_(va, simd::splat(0.0f)));
    for (int i = 0; i < simd::kLanes; ++i)
        EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i)],
                        std::min(a[static_cast<std::size_t>(i)], 0.0f));

    simd::store(out.data(), simd::max_(va, simd::splat(0.0f)));
    for (int i = 0; i < simd::kLanes; ++i)
        EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i)],
                        std::max(a[static_cast<std::size_t>(i)], 0.0f));
}

TEST(SimdWrapper, CompareBlendNone)
{
    std::array<float, simd::kLanes> out{};
    const simd::VecF v = simd::iota();  // 0..W-1
    const simd::Mask m = simd::cmp_ge(v, simd::splat(2.0f));
    simd::store(out.data(), simd::blend(m, simd::splat(1.0f), simd::splat(-1.0f)));
    for (int i = 0; i < simd::kLanes; ++i)
        EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i)], i >= 2 ? 1.0f : -1.0f) << i;

    EXPECT_FALSE(simd::none(m));
    EXPECT_TRUE(simd::none(simd::cmp_gt(v, simd::splat(1e9f))));
    // Mask conjunction.
    const simd::Mask both = simd::cmp_ge(v, simd::splat(1.0f)) & simd::cmp_le(v, simd::splat(1.0f));
    simd::store(out.data(), simd::blend(both, simd::splat(1.0f), simd::splat(0.0f)));
    for (int i = 0; i < simd::kLanes; ++i)
        EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i)], i == 1 ? 1.0f : 0.0f) << i;
}

TEST(SimdWrapper, ToIntTruncatesTowardZero)
{
    std::array<float, simd::kLanes> in{};
    std::array<std::int32_t, simd::kLanes> out{};
    for (int i = 0; i < simd::kLanes; ++i) in[static_cast<std::size_t>(i)] = 1.75f * i - 3.4f;
    simd::store_i(out.data(), simd::to_int(simd::load(in.data())));
    for (int i = 0; i < simd::kLanes; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)],
                  static_cast<std::int32_t>(in[static_cast<std::size_t>(i)]))
            << i;
}

TEST(SimdWrapper, GatherMatchesScalarIndexing)
{
    // gather_pair: both halves of every lane, bit for bit, for float and
    // int32 bases.  The table holds -0, a denormal and a NaN so no lane
    // may round-trip through arithmetic.  Indices are random in [0, n-2]
    // and include n-2, whose pair ends on the table's last element.
    const int n = 97;
    std::vector<float> table(static_cast<std::size_t>(n));
    std::vector<std::int32_t> itable(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        table[static_cast<std::size_t>(i)] = 1.5f * i - 40.25f;
        itable[static_cast<std::size_t>(i)] = 1000003 * i - 48000000;
    }
    table[3] = -0.0f;
    table[4] = std::numeric_limits<float>::denorm_min();
    table[5] = std::numeric_limits<float>::quiet_NaN();
    std::mt19937 rng(61);
    std::uniform_int_distribution<int> pick(0, n - 2);
    for (int trial = 0; trial < 64; ++trial) {
        std::array<std::int32_t, simd::kLanes> idx{};
        for (auto& v : idx) v = pick(rng);
        idx[static_cast<std::size_t>(trial) % idx.size()] = n - 2;
        if (trial == 0) idx = {};  // every lane on element 0
        const simd::VecI vidx = simd::load_i(idx.data());

        const auto [lo, hi] = simd::gather_pair(table.data(), vidx);
        const auto [ilo, ihi] = simd::gather_pair(itable.data(), vidx);
        std::array<float, simd::kLanes> glo{}, ghi{};
        std::array<std::int32_t, simd::kLanes> gilo{}, gihi{};
        simd::store(glo.data(), lo);
        simd::store(ghi.data(), hi);
        simd::store_i(gilo.data(), ilo);
        simd::store_i(gihi.data(), ihi);
        for (std::size_t l = 0; l < idx.size(); ++l) {
            const auto at = static_cast<std::size_t>(idx[l]);
            ASSERT_EQ(std::bit_cast<std::uint32_t>(glo[l]), std::bit_cast<std::uint32_t>(table[at]))
                << "trial " << trial << " lane " << l;
            ASSERT_EQ(std::bit_cast<std::uint32_t>(ghi[l]),
                      std::bit_cast<std::uint32_t>(table[at + 1]))
                << "trial " << trial << " lane " << l;
            ASSERT_EQ(gilo[l], itable[at]) << "trial " << trial << " lane " << l;
            ASSERT_EQ(gihi[l], itable[at + 1]) << "trial " << trial << " lane " << l;
        }
    }
}

TEST(SimdWrapper, WindowPairMatchesGatherPair)
{
    // window_pair picks {w[g][idx], w[g][idx + 1]} for the lanes of window
    // group g out of that group's kWindow-float window, and must return
    // gather_pair(w[g], idx)'s bits there for every index in
    // [0, kWindow-2].  The groups' windows sit at different offsets into a
    // longer table that holds -0, a denormal and a NaN.
    const int n = 3 * simd::kWindow + 5;
    std::vector<float> table(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) table[static_cast<std::size_t>(i)] = 0.75f * i - 31.5f;
    table[7] = -0.0f;
    table[8] = std::numeric_limits<float>::denorm_min();
    table[9] = std::numeric_limits<float>::quiet_NaN();
    std::mt19937 rng(62);
    std::uniform_int_distribution<int> pick(0, simd::kWindow - 2);
    std::uniform_int_distribution<int> start(0, n - simd::kWindow);
    for (int trial = 0; trial < 64; ++trial) {
        std::array<std::int32_t, simd::kLanes> idx{};
        for (auto& v : idx) v = pick(rng);
        idx[static_cast<std::size_t>(trial) % idx.size()] = simd::kWindow - 2;
        if (trial == 0) idx = {};
        std::array<const float*, simd::kGroups> w{};
        for (std::size_t g = 0; g < w.size(); ++g)
            w[g] = table.data() + (trial < 3 ? trial * 3 + 11 * static_cast<int>(g) : start(rng));
        const simd::VecI vidx = simd::load_i(idx.data());
        const auto [lo, hi] = simd::window_pair(w, vidx);
        std::array<float, simd::kLanes> a{}, b{};
        simd::store(a.data(), lo);
        simd::store(b.data(), hi);
        for (std::size_t g = 0; g < w.size(); ++g) {
            const auto [glo, ghi] = simd::gather_pair(w[g], vidx);
            std::array<float, simd::kLanes> c{}, d{};
            simd::store(c.data(), glo);
            simd::store(d.data(), ghi);
            for (std::size_t l = g * simd::kGroup; l < (g + 1) * simd::kGroup; ++l) {
                ASSERT_EQ(std::bit_cast<std::uint32_t>(a[l]), std::bit_cast<std::uint32_t>(c[l]))
                    << "trial " << trial << " lane " << l;
                ASSERT_EQ(std::bit_cast<std::uint32_t>(b[l]), std::bit_cast<std::uint32_t>(d[l]))
                    << "trial " << trial << " lane " << l;
            }
        }
    }
}

TEST(SimdWrapper, LaneAndAll)
{
    std::array<float, simd::kLanes> a{};
    for (int i = 0; i < simd::kLanes; ++i) a[static_cast<std::size_t>(i)] = 1.5f * i - 4.0f;
    const simd::VecF v = simd::load(a.data());
    EXPECT_EQ(simd::lane<1>(v), a[1]);
    EXPECT_TRUE(simd::all(simd::cmp_ge(v, simd::splat(a.front()))));
    EXPECT_FALSE(simd::all(simd::cmp_gt(v, simd::splat(a.front()))));
    EXPECT_FALSE(simd::all(simd::cmp_le(v, simd::splat(a[simd::kLanes - 2]))));
    // lane<L>, none and all on lanes 0, 7, 8 and 15 (those the backend
    // has): the end lanes of both window groups at 16 lanes, where a lane
    // read crosses a 128- and a 256-bit half.  Masks with lane L alone set
    // and alone clear come from compares against NaN, which fail.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const auto check = [&]<int L>(std::integral_constant<int, L>) {
        if constexpr (L < simd::kLanes) {
            EXPECT_EQ(std::bit_cast<std::uint32_t>(simd::lane<L>(v)),
                      std::bit_cast<std::uint32_t>(a[L]))
                << L;
            std::array<float, simd::kLanes> only{}, all_but = a;
            only.fill(nan);
            only[L] = a[L];
            all_but[L] = nan;
            const simd::Mask set = simd::cmp_ge(simd::load(only.data()), simd::splat(-inf));
            const simd::Mask clear = simd::cmp_ge(simd::load(all_but.data()), simd::splat(-inf));
            EXPECT_FALSE(simd::none(set)) << L;
            EXPECT_FALSE(simd::all(set)) << L;
            EXPECT_FALSE(simd::none(clear)) << L;
            EXPECT_FALSE(simd::all(clear)) << L;
            EXPECT_TRUE(simd::none(set & clear)) << L;
        }
    };
    check(std::integral_constant<int, 0>{});
    check(std::integral_constant<int, 7>{});
    check(std::integral_constant<int, 8>{});
    check(std::integral_constant<int, 15>{});
    check(std::integral_constant<int, simd::kLanes - 1>{});
}

/// FloatLanesMatchScalarOpsBitForBit's op list on lanes of type L, read
/// and broadcast by `load` and `splat` (simd's own, or simd::batch's).
template <class L>
void float_lanes_match_scalar_ops(L (*load)(const float*), L (*splat)(float))
{
    constexpr int W = sizeof(L) / sizeof(float);
    const float inf = std::numeric_limits<float>::infinity();
    const std::vector<float> pool{0.0f,
                                  -0.0f,
                                  1.0f,
                                  -2.5f,
                                  0.1f,
                                  7.0f / 3.0f,
                                  3.5f,
                                  -1e30f,
                                  1e-39f,
                                  std::numeric_limits<float>::denorm_min(),
                                  -4.2e-40f,
                                  std::numeric_limits<float>::quiet_NaN(),
                                  inf,
                                  -inf,
                                  1e7f};
    const auto bits = [](float x) { return std::bit_cast<std::uint32_t>(x); };
    std::mt19937 rng(63);
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    for (int trial = 0; trial < 512; ++trial) {
        std::array<float, W> a{}, b{}, c{};
        for (std::size_t l = 0; l < a.size(); ++l) {
            a[l] = pool[pick(rng)];
            b[l] = pool[pick(rng)];
            c[l] = pool[pick(rng)];
        }
        const L va = load(a.data()), vb = load(b.data()), vc = load(c.data());
        const auto expect = [&](L got, auto op, const char* name) {
            std::array<float, W> out{};
            simd::store(out.data(), got);
            for (std::size_t l = 0; l < out.size(); ++l)
                ASSERT_EQ(bits(out[l]), bits(op(a[l], b[l], c[l])))
                    << name << " lane " << l << " of " << W << ": " << a[l] << ", " << b[l]
                    << ", " << c[l];
        };
        const auto min = [](float x, float y) { return x < y ? x : y; };
        const auto max = [](float x, float y) { return x > y ? x : y; };
        expect(splat(a[0]), [&](float, float, float) { return a[0]; }, "splat");
        expect(va + vb, [](float x, float y, float) { return x + y; }, "+");
        expect(va - vb, [](float x, float y, float) { return x - y; }, "-");
        expect(-va, [](float x, float, float) { return -x; }, "negate");
        expect(va * vb, [](float x, float y, float) { return x * y; }, "*");
        expect(va / vb, [](float x, float y, float) { return x / y; }, "/");
        expect(simd::fmadd(va, vb, vc),
               [](float x, float y, float z) { return simd::fmadd(x, y, z); }, "fmadd");
        expect(simd::floor_(va), [](float x, float, float) { return std::floor(x); }, "floor_");
        expect(simd::min_(va, vb), [&](float x, float y, float) { return min(x, y); }, "min_");
        expect(simd::max_(va, vb), [&](float x, float y, float) { return max(x, y); }, "max_");
        expect(
            simd::clamp(va, vb, vc),
            [&](float x, float y, float z) { return min(max(x, y), z); }, "clamp");
        expect(
            simd::blend(simd::cmp_gt(va, vb), va, vc),
            [](float x, float y, float z) { return x > y ? x : z; }, "blend(cmp_gt)");
        expect(
            simd::blend(simd::cmp_ge(va, vb), vc, vb),
            [](float x, float y, float z) { return x >= y ? z : y; }, "blend(cmp_ge)");
        expect(
            simd::blend(simd::cmp_le(va, vb) & simd::cmp_gt(vc, va), vc, va),
            [](float x, float y, float z) { return x <= y && z > x ? z : x; }, "mask &");
        bool any = false, every = true;
        for (std::size_t l = 0; l < a.size(); ++l) {
            any = any || a[l] > b[l];
            every = every && a[l] >= c[l];
        }
        ASSERT_EQ(simd::none(simd::cmp_gt(va, vb)), !any) << "trial " << trial;
        ASSERT_EQ(simd::all(simd::cmp_ge(va, vc)), every) << "trial " << trial;
    }
    // Negation flips the sign bit alone: of +-0, and of NaNs whose payloads
    // it keeps.
    const std::array<std::uint32_t, 4> flip{0x00000000u, 0x80000000u, 0x7fc12345u, 0xffc54321u};
    std::array<float, W> in{}, out{};
    for (std::size_t l = 0; l < in.size(); ++l) in[l] = std::bit_cast<float>(flip[l % flip.size()]);
    simd::store(out.data(), -load(in.data()));
    for (std::size_t l = 0; l < in.size(); ++l)
        ASSERT_EQ(bits(out[l]), bits(in[l]) ^ 0x80000000u) << "negate lane " << l << " of " << W;
    // to_int on finite operands in int32 range (the kernel floors first;
    // fractions truncate toward zero).
    const std::vector<float> finite{0.0f, -0.0f, 1e-39f, 0.999f, -1.5f, 33.75f, -1e9f, 2.1e9f};
    std::array<std::int32_t, W> got{};
    for (std::size_t i = 0; i < finite.size(); ++i) {
        for (std::size_t l = 0; l < in.size(); ++l) in[l] = finite[(i + l) % finite.size()];
        simd::store(got.data(), simd::to_int(load(in.data())));
        for (std::size_t l = 0; l < in.size(); ++l)
            ASSERT_EQ(got[l], static_cast<std::int32_t>(in[l])) << "to_int of " << in[l];
    }
}

TEST(SimdWrapper, FloatLanesMatchScalarOpsBitForBit)
{
    // Every float-lane operation against the same operation on each lane's
    // floats, bit for bit, at both float widths: the kernel's VecF (16
    // lanes on AVX-512) and the FFT's batch lanes (8 there, whose fused
    // fmadd is another instruction).  Operands mix -0, denormals,
    // infinities and a NaN with ordinary values, drawn at run time so that
    // no result folds at compile time.  min_ and max_ return their second
    // operand when the compare fails (either is NaN, or both are zero), as
    // x86's do.
    {
        SCOPED_TRACE("simd::VecF");
        float_lanes_match_scalar_ops<simd::VecF>(&simd::load, &simd::splat);
    }
    {
        SCOPED_TRACE("simd::batch::VecF");
        float_lanes_match_scalar_ops<simd::batch::VecF>(&simd::batch::load, &simd::batch::splat);
    }
    std::array<float, simd::kLanes> out{};
    simd::store(out.data(), simd::iota());
    for (int l = 0; l < simd::kLanes; ++l)
        ASSERT_EQ(out[static_cast<std::size_t>(l)], static_cast<float>(l));
}

TEST(SimdWrapper, DoubleLanesMatchScalarOpsBitForBit)
{
    // Every double-lane operation against the same operation on each lane's
    // doubles, bit for bit.  Operands mix -0, denormals, infinities and a
    // NaN with ordinary values, drawn at run time so that no result folds at
    // compile time.  sqrt_ meets negatives only under a mask, as the
    // projector uses it: the masked lanes must not leak their NaN.
    constexpr int W = simd::kLanesD;
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> pool{0.0,
                                   -0.0,
                                   1.0,
                                   -2.5,
                                   0.1,
                                   7.0 / 3.0,
                                   1e300,
                                   -1e-300,
                                   std::numeric_limits<double>::denorm_min(),
                                   -4.9e-320,
                                   std::numeric_limits<double>::quiet_NaN(),
                                   inf,
                                   -inf,
                                   4.0};
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    std::mt19937 rng(64);
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    for (int trial = 0; trial < 512; ++trial) {
        std::array<double, W> a{}, b{}, c{};
        for (std::size_t l = 0; l < a.size(); ++l) {
            a[l] = pool[pick(rng)];
            b[l] = pool[pick(rng)];
            c[l] = pool[pick(rng)];
        }
        const simd::VecD va = simd::load(a.data()), vb = simd::load(b.data());
        const simd::VecD vc = simd::load(c.data()), zero = simd::splat_d(0.0);
        const auto expect = [&](simd::VecD got, auto op, const char* name) {
            std::array<double, W> out{};
            simd::store(out.data(), got);
            for (std::size_t l = 0; l < out.size(); ++l)
                ASSERT_EQ(bits(out[l]), bits(op(a[l], b[l], c[l])))
                    << name << " lane " << l << ": " << a[l] << ", " << b[l] << ", " << c[l];
        };
        expect(simd::splat_d(a[0]), [&](double, double, double) { return a[0]; }, "splat_d");
        expect(va + vb, [](double x, double y, double) { return x + y; }, "+");
        expect(va - vb, [](double x, double y, double) { return x - y; }, "-");
        expect(-va, [](double x, double, double) { return -x; }, "negate");
        expect(va * vb, [](double x, double y, double) { return x * y; }, "*");
        expect(va / vb, [](double x, double y, double) { return x / y; }, "/");
        expect(simd::fmadd(va, vb, vc),
               [](double x, double y, double z) { return simd::fmadd(x, y, z); }, "fmadd");
        expect(
            simd::blend(simd::cmp_gt(va, zero), simd::sqrt_(va), vc),
            [](double x, double, double z) { return x > 0.0 ? std::sqrt(x) : z; }, "masked sqrt_");
        expect(
            simd::blend(simd::cmp_gt(va, vb), va, vb),
            [](double x, double y, double) { return x > y ? x : y; }, "blend(cmp_gt)");
        expect(
            simd::blend(simd::cmp_gt(va, vb) & simd::cmp_gt(vc, va), vc, vb),
            [](double x, double y, double z) { return x > y && z > x ? z : y; }, "mask &");
        bool any = false;
        for (std::size_t l = 0; l < a.size(); ++l) any = any || a[l] > b[l];
        ASSERT_EQ(simd::none(simd::cmp_gt(va, vb)), !any) << "trial " << trial;
    }
    // sqrt_ unmasked, on every non-negative operand (and the NaN).
    std::array<double, W> in{}, out{};
    for (std::size_t i = 0; i < pool.size(); ++i) {
        for (std::size_t l = 0; l < in.size(); ++l) in[l] = std::fabs(pool[(i + l) % pool.size()]);
        simd::store(out.data(), simd::sqrt_(simd::load(in.data())));
        for (std::size_t l = 0; l < in.size(); ++l)
            ASSERT_EQ(bits(out[l]), bits(std::sqrt(in[l]))) << "sqrt_ of " << in[l];
    }
}

// ---- SIMD vs scalar back-projection (randomized property test) ------------

CbctGeometry random_geometry(std::mt19937& rng)
{
    std::uniform_real_distribution<double> ud(0.0, 1.0);
    CbctGeometry g;
    g.dso = 80.0 + 40.0 * ud(rng);
    g.dsd = g.dso * (2.2 + 0.8 * ud(rng));
    g.num_proj = 12 + static_cast<index_t>(ud(rng) * 12.0);
    g.nu = 32 + 2 * static_cast<index_t>(ud(rng) * 12.0);
    g.nv = 24 + 2 * static_cast<index_t>(ud(rng) * 10.0);
    g.du = g.dv = 0.4 + 0.4 * ud(rng);
    const index_t n = 12 + 2 * static_cast<index_t>(ud(rng) * 8.0);
    g.vol = {n, n, n};
    g.dx = g.dy = g.dz =
        CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, n) * (0.6 + 0.4 * ud(rng));
    // Table-4 calibration offsets (Fig. 7): detector shifts in +-1.5 px,
    // rotation-centre shift in +-2 mm.
    g.sigma_u = 3.0 * ud(rng) - 1.5;
    g.sigma_v = 3.0 * ud(rng) - 1.5;
    g.sigma_cor = 4.0 * ud(rng) - 2.0;
    return g;
}

ProjectionStack random_stack(const CbctGeometry& g, std::mt19937& rng)
{
    ProjectionStack p(g.num_proj, g.nv, g.nu);
    std::uniform_real_distribution<float> u(0.0f, 1.0f);
    for (float& v : p.span()) v = u(rng);
    return p;
}

sim::Texture3 make_texture(sim::Device& dev, const ProjectionStack& p, Range band)
{
    sim::Texture3 tex(dev, p.cols(), p.views(), band.length());
    std::vector<float> plane(static_cast<std::size_t>(p.cols() * p.views()));
    for (index_t v = band.lo; v < band.hi; ++v) {
        for (index_t s = 0; s < p.views(); ++s) {
            const auto row = p.row(s, v);
            std::copy(row.begin(), row.end(),
                      plane.begin() + static_cast<std::ptrdiff_t>(s * p.cols()));
        }
        tex.copy_planes(plane, v - band.lo, 1);
    }
    return tex;
}

TEST(SimdBackproj, MatchesScalarAcrossRandomGeometries)
{
    std::mt19937 rng(2024);
    for (int trial = 0; trial < 6; ++trial) {
        const CbctGeometry g = random_geometry(rng);
        const ProjectionStack p = random_stack(g, rng);
        const auto mats = projection_matrices(g);
        const backproj::MatrixPack pack{std::span<const Mat34>(mats)};

        sim::Device dev(256u << 20);
        const sim::Texture3 tex = make_texture(dev, p, Range{0, g.nv});
        Volume scalar(g.vol), vec(g.vol);
        backproj::backproject_streaming_scalar(tex, pack, scalar, backproj::StreamOffsets{0, 0},
                                               g.nu, g.nv);
        backproj::backproject_streaming(tex, pack, vec, backproj::StreamOffsets{0, 0}, g.nu,
                                        g.nv);

        const float tol = backproj::kSimdVsScalarRelBound * max_abs(scalar.span());
        ASSERT_GT(tol, 0.0f) << "degenerate trial " << trial;
        for (index_t i = 0; i < vec.count(); ++i)
            ASSERT_NEAR(vec.span()[static_cast<std::size_t>(i)],
                        scalar.span()[static_cast<std::size_t>(i)], tol)
                << "trial " << trial << " voxel " << i;
    }
}

TEST(SimdBackproj, MatchesScalarOnBandRestrictedSlabs)
{
    std::mt19937 rng(777);
    for (int trial = 0; trial < 3; ++trial) {
        const CbctGeometry g = random_geometry(rng);
        const ProjectionStack p = random_stack(g, rng);
        const auto mats = projection_matrices(g);
        const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
        const Range slab{g.vol.z / 4, g.vol.z / 4 + g.vol.z / 2};
        const Range band = compute_ab(g, slab);

        sim::Device dev(256u << 20);
        const sim::Texture3 tex = make_texture(dev, p, band);
        const Dim3 sdim{g.vol.x, g.vol.y, slab.length()};
        Volume scalar(sdim), vec(sdim);
        const backproj::StreamOffsets off{slab.lo, band.lo};
        backproj::backproject_streaming_scalar(tex, pack, scalar, off, g.nu, g.nv);
        backproj::backproject_streaming(tex, pack, vec, off, g.nu, g.nv);

        const float tol = backproj::kSimdVsScalarRelBound * max_abs(scalar.span());
        for (index_t i = 0; i < vec.count(); ++i)
            ASSERT_NEAR(vec.span()[static_cast<std::size_t>(i)],
                        scalar.span()[static_cast<std::size_t>(i)], tol)
                << "trial " << trial << " voxel " << i;
    }
}

// ---- column walk vs the per-(view, row) kernel it replaced (bitwise) -------

/// The per-row kernel's one-element gathers, as lane loops: a gather is
/// an exact load, so how it is done cannot change the oracle's output.
simd::VecF gather(const float* base, simd::VecI idx)
{
    std::array<std::int32_t, simd::kLanes> ix{};
    std::array<float, simd::kLanes> v{};
    simd::store_i(ix.data(), idx);
    for (std::size_t l = 0; l < ix.size(); ++l) v[l] = base[ix[l]];
    return simd::load(v.data());
}
simd::VecI gather_i(const std::int32_t* base, simd::VecI idx)
{
    std::array<std::int32_t, simd::kLanes> ix{}, v{};
    simd::store_i(ix.data(), idx);
    for (std::size_t l = 0; l < ix.size(); ++l) v[l] = base[ix[l]];
    return simd::load_i(v.data());
}

/// The oracle: the production kernel as it was before the column walk,
/// kept verbatim apart from running serially, the gathers above, rows
/// padded to whole vectors in place of its scalar tail, and its products
/// written as the fmadd the kernel writes (this file, like the kernel,
/// compiles with -ffp-contract=off).  It re-derives x, zn and the weight at
/// every (k, j) and fetches each bilinear tap with its own gather, so it
/// stays correct for any matrix.
void per_row_kernel(const sim::Texture3& tex, const backproj::MatrixPack& pack, Volume& vol,
                    const backproj::StreamOffsets& off, index_t nu, index_t nv)
{
    const Dim3 d = vol.size();
    const index_t views = pack.views();
    const index_t width = tex.width();
    const index_t height = tex.height();
    const index_t depth = tex.depth();
    const float* texel = tex.device_span().data();
    const float x_hi = static_cast<float>(nu - 1);
    const float y_hi = static_cast<float>(nv - 1);
    constexpr index_t W = simd::kLanes;
    const index_t nx_pad = (d.x + W - 1) / W * W;

    std::vector<std::int32_t> zrow(static_cast<std::size_t>(nv + 1));
    for (index_t t = 0; t <= nv; ++t) {
        index_t zz = (t - off.proj_y) % depth;
        if (zz < 0) zz += depth;
        zrow[static_cast<std::size_t>(t)] = static_cast<std::int32_t>(zz * height * width);
    }

    const simd::VecF viota = simd::iota();
    const simd::VecF vzero = simd::splat(0.0f);
    const simd::VecF vone = simd::splat(1.0f);
    const simd::VecF vxhi = simd::splat(x_hi);
    const simd::VecF vyhi = simd::splat(y_hi);
    const simd::VecI vone_i = simd::splat_i(1);

    for (index_t k = 0; k < d.z; ++k) {
        for (index_t j = 0; j < d.y; ++j) {
            const double kk = static_cast<double>(k + off.volume_z);
            const double jj = static_cast<double>(j);
            std::vector<float> acc(static_cast<std::size_t>(nx_pad), 0.0f);
            for (index_t s = 0; s < views; ++s) {
                const Mat34& m = pack.dmat(s);
                const auto& f = pack.fmat(s);
                const auto row = [&](const Vec4& r) {
                    return static_cast<float>(simd::fmadd(r.y, jj, r.z * kk) + r.w);
                };
                const float xn0 = row(m[0]);
                const float yn0 = row(m[1]);
                const float zn0 = row(m[2]);
                const float dxn = f[0];
                const float dyn = f[4];
                const float dzn = f[8];

                const simd::VecF vxn0 = simd::splat(xn0);
                const simd::VecF vyn0 = simd::splat(yn0);
                const simd::VecF vzn0 = simd::splat(zn0);
                const simd::VecF vdxn = simd::splat(dxn);
                const simd::VecF vdyn = simd::splat(dyn);
                const simd::VecF vdzn = simd::splat(dzn);
                const simd::VecI vsrow = simd::splat_i(static_cast<std::int32_t>(s * width));

                for (index_t i = 0; i < d.x; i += W) {
                    const simd::VecF ii = simd::splat(static_cast<float>(i)) + viota;
                    const simd::VecF zn = simd::fmadd(ii, vdzn, vzn0);
                    const simd::Mask zpos = simd::cmp_gt(zn, vzero);
                    const simd::VecF zn_safe = simd::blend(zpos, zn, vone);
                    const simd::VecF x = simd::fmadd(ii, vdxn, vxn0) / zn_safe;
                    const simd::VecF y = simd::fmadd(ii, vdyn, vyn0) / zn_safe;
                    const simd::Mask ok = zpos & simd::cmp_ge(x, vzero) & simd::cmp_le(x, vxhi) &
                                          simd::cmp_ge(y, vzero) & simd::cmp_le(y, vyhi);
                    if (simd::none(ok)) continue;
                    const simd::VecF xc = simd::clamp(x, vzero, vxhi);
                    const simd::VecF yc = simd::clamp(y, vzero, vyhi);
                    const simd::VecF fx = simd::floor_(xc);
                    const simd::VecF fy = simd::floor_(yc);
                    const simd::VecF du = xc - fx;
                    const simd::VecF dv = yc - fy;
                    const simd::VecI iu0 = simd::to_int(fx);
                    const simd::VecI iu1 = simd::to_int(simd::min_(fx + vone, vxhi));
                    const simd::VecI t0 = simd::to_int(fy);
                    const simd::VecI t1 = t0 + vone_i;
                    const simd::VecI z0 = gather_i(zrow.data(), t0) + vsrow;
                    const simd::VecI z1 = gather_i(zrow.data(), t1) + vsrow;
                    const simd::VecF f00 = gather(texel, z0 + iu0);
                    const simd::VecF f01 = gather(texel, z0 + iu1);
                    const simd::VecF f10 = gather(texel, z1 + iu0);
                    const simd::VecF f11 = gather(texel, z1 + iu1);
                    const simd::VecF one_du = vone - du;
                    const simd::VecF one_dv = vone - dv;
                    const simd::VecF row0 = simd::fmadd(f01, du, f00 * one_du);
                    const simd::VecF row1 = simd::fmadd(f11, du, f10 * one_du);
                    const simd::VecF bil = simd::fmadd(row1, dv, row0 * one_dv);
                    const simd::VecF wgt = vone / (zn_safe * zn_safe);
                    const simd::VecF contrib = simd::blend(ok, wgt * bil, vzero);
                    simd::store(acc.data() + i, simd::load(acc.data() + i) + contrib);
                }
            }
            for (index_t i = 0; i < d.x; ++i)
                vol.at(i, j, k) += acc[static_cast<std::size_t>(i)];
        }
    }
}

/// Every voxel's bit pattern, so +0 and -0 (and NaN payloads) count.
void expect_bitwise_equal(const Volume& got, const Volume& want, const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    const auto a = got.span();
    const auto b = want.span();
    if (std::memcmp(a.data(), b.data(), a.size_bytes()) == 0) return;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]))
            << what << ": voxel " << i << " got " << a[i] << " want " << b[i];
}

/// Run the production kernel and the oracle on the same slab and inputs;
/// returns the slab's largest magnitude (0 for a slab no ray reaches).
float expect_column_walk_matches(const sim::Texture3& tex, const backproj::MatrixPack& pack,
                                 Dim3 slab, const backproj::StreamOffsets& off, index_t nu,
                                 index_t nv, const std::string& what)
{
    Volume got(slab), want(slab);
    backproj::backproject_streaming(tex, pack, got, off, nu, nv);
    per_row_kernel(tex, pack, want, off, nu, nv);
    expect_bitwise_equal(got, want, what);
    return max_abs(want.span());
}

TEST(ColumnWalk, BitwiseEqualsPerRowKernelAcrossRandomGeometries)
{
    std::mt19937 rng(2024);
    for (int trial = 0; trial < 6; ++trial) {
        const CbctGeometry g = random_geometry(rng);
        const ProjectionStack p = random_stack(g, rng);
        const auto mats = projection_matrices(g);
        const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
        sim::Device dev(256u << 20);
        const sim::Texture3 tex = make_texture(dev, p, Range{0, g.nv});
        EXPECT_GT(expect_column_walk_matches(tex, pack, g.vol, backproj::StreamOffsets{0, 0},
                                             g.nu, g.nv, "trial " + std::to_string(trial)),
                  0.0f);
    }
}

TEST(ColumnWalk, BitwiseOnWrappedBandsAndSlabDepths)
{
    // Algorithm 3's streaming pattern: one texture of H rows anchored at
    // the first band, later bands written at (v - origin) % H, so every
    // slab after the first has proj_y != band.lo and its rows wrap.  Slab
    // depths 1 and 12 bracket the z walk; nx = 8m + 5 ends on a padded
    // vector.
    std::mt19937 rng(515);
    for (int trial = 0; trial < 4; ++trial) {
        CbctGeometry g = random_geometry(rng);
        g.vol = {8 * (2 + trial % 2) + 5, g.vol.y, 26};
        const ProjectionStack p = random_stack(g, rng);
        const auto mats = projection_matrices(g);
        const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
        for (const index_t nb : {index_t{1}, index_t{12}}) {
            const auto plans = plan_slabs(g, Range{0, g.vol.z}, nb);
            index_t h = 0;
            for (const auto& pl : plans) h = std::max(h, pl.rows.length());
            const index_t origin = plans.front().rows.lo;
            sim::Device dev(256u << 20);
            sim::Texture3 tex(dev, g.nu, g.num_proj, h);
            std::vector<float> plane(static_cast<std::size_t>(g.nu * g.num_proj));
            bool wrapped = false;
            std::size_t lit = 0;  // slabs some ray reaches (edge slabs may not)
            for (const auto& pl : plans) {
                for (index_t v = pl.delta.lo; v < pl.delta.hi; ++v) {
                    for (index_t s = 0; s < g.num_proj; ++s) {
                        const auto row = p.row(s, v);
                        std::copy(row.begin(), row.end(),
                                  plane.begin() + static_cast<std::ptrdiff_t>(s * g.nu));
                    }
                    tex.copy_planes(plane, (v - origin) % h, 1);
                }
                wrapped = wrapped || (pl.rows.hi - origin) > h;
                const float peak = expect_column_walk_matches(
                    tex, pack, Dim3{g.vol.x, g.vol.y, pl.slab.length()},
                    backproj::StreamOffsets{pl.slab.lo, origin}, g.nu, g.nv,
                    "trial " + std::to_string(trial) + " nb " + std::to_string(nb) +
                        " slab " + std::to_string(pl.slab.lo));
                if (peak > 0.0f) ++lit;
            }
            EXPECT_TRUE(wrapped) << "trial " << trial << " nb " << nb;
            EXPECT_GE(2 * lit, plans.size()) << "trial " << trial << " nb " << nb;
        }
    }
}

TEST(ColumnWalk, BitwiseWhenVoxelsLandOnTheLastDetectorColumn)
{
    // Hand-built views whose x is exact: view 0 maps voxel i to x = i,
    // view 1 to x = 0.625 (i + 1) at zn = 2, view 2 to x = 2i/2.  Voxels
    // land exactly on x = nu - 1, where both horizontal taps read column
    // nu - 1 through the clamped pair, and on x beyond it (masked).
    const index_t nu = 16;
    const index_t nv = 12;
    std::vector<Mat34> mats(3);
    mats[0][0] = Vec4{1.0, 0.0, 0.0, 0.0};
    mats[0][1] = Vec4{0.0, 0.5, 0.25, 0.3};
    mats[0][2] = Vec4{0.0, 0.0, 0.0, 1.0};
    mats[1][0] = Vec4{1.25, 0.0, 0.0, 1.25};
    mats[1][1] = Vec4{0.125, 0.75, 0.5, 0.5};
    mats[1][2] = Vec4{0.0, 0.0, 0.0, 2.0};
    mats[2][0] = Vec4{2.0, 0.0, 0.0, 0.0};
    mats[2][1] = Vec4{0.0, 1.0, 0.0, 0.0};
    mats[2][2] = Vec4{0.0, 0.0, 0.0, 2.0};
    const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
    ASSERT_TRUE(pack.z_invariant());

    CbctGeometry g;
    g.num_proj = 3;
    g.nu = nu;
    g.nv = nv;
    std::mt19937 rng(9);
    const ProjectionStack p = random_stack(g, rng);
    sim::Device dev(16u << 20);
    const sim::Texture3 tex = make_texture(dev, p, Range{0, nv});
    EXPECT_GT(expect_column_walk_matches(tex, pack, Dim3{29, 10, 4},
                                         backproj::StreamOffsets{2, 0}, nu, nv, "last column"),
              0.0f);

    // The clamped pair really is taken: x = nu - 1 at i = nu - 1 in view 0.
    Volume only(Dim3{nu, 1, 1});
    const backproj::MatrixPack first{std::span<const Mat34>(mats.data(), 1)};
    sim::Texture3 one(dev, nu, 1, nv);
    std::vector<float> plane(static_cast<std::size_t>(nu));
    for (index_t v = 0; v < nv; ++v) {
        for (index_t u = 0; u < nu; ++u)
            plane[static_cast<std::size_t>(u)] = static_cast<float>(100 * v + u);
        one.copy_planes(plane, v, 1);
    }
    backproj::backproject_streaming(one, first, only, backproj::StreamOffsets{0, 0}, nu, nv);
    // y = 0.3 at j = k = 0: 0.7 * row 0 + 0.3 * row 1 of column nu - 1.
    EXPECT_FLOAT_EQ(only.at(nu - 1, 0, 0), 0.7f * (nu - 1) + 0.3f * (100 + nu - 1));
}

/// expect_column_walk_matches with the pool capped at one participant and
/// at four: blocks of rows may run on any slot, and the output must not
/// depend on it.  Returns the slab's largest magnitude.
float expect_column_walk_matches_at_widths(const sim::Texture3& tex,
                                           const backproj::MatrixPack& pack, Dim3 slab,
                                           const backproj::StreamOffsets& off, index_t nu,
                                           index_t nv, const std::string& what)
{
    float peak = 0.0f;
    for (const int width : {1, 4}) {
        const testutil::ScopedThreads cap(width);
        peak = expect_column_walk_matches(tex, pack, slab, off, nu, nv,
                                          what + " width " + std::to_string(width));
    }
    return peak;
}

/// A texture of `depth` planes of random texels, for views whose rows need
/// not come from a projection stack.
sim::Texture3 random_texture(sim::Device& dev, index_t nu, index_t views, index_t depth,
                             std::mt19937& rng)
{
    sim::Texture3 tex(dev, nu, views, depth);
    std::vector<float> plane(static_cast<std::size_t>(nu * views));
    std::uniform_real_distribution<float> u(0.0f, 1.0f);
    for (index_t z = 0; z < depth; ++z) {
        for (float& v : plane) v = u(rng);
        tex.copy_planes(plane, z, 1);
    }
    return tex;
}

TEST(ColumnWalk, BitwiseOnRowBlockEdges)
{
    // Rows go to the pool in blocks of up to four, shorter when the slab
    // is too thin for four blocks per participant.  At width 4, d.y = 66
    // runs blocks of 4 and ends on a partial one, d.y = 37 blocks of 2;
    // at width 1, d.y = 66, 13 and 11 run blocks of 4, 3 and 2 with a
    // partial last block, and d.y = 3 and 1 fall back to one-row blocks.
    std::mt19937 rng(4041);
    for (const index_t dy : {index_t{66}, index_t{37}, index_t{13}, index_t{11}, index_t{3},
                             index_t{1}}) {
        const CbctGeometry g = random_geometry(rng);
        const ProjectionStack p = random_stack(g, rng);
        const auto mats = projection_matrices(g);
        const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
        sim::Device dev(256u << 20);
        const sim::Texture3 tex = make_texture(dev, p, Range{0, g.nv});
        const Dim3 slab{g.vol.x, dy, g.vol.z / 2};
        EXPECT_GT(expect_column_walk_matches_at_widths(
                      tex, pack, slab, backproj::StreamOffsets{g.vol.z / 4, 0}, g.nu, g.nv,
                      "d.y " + std::to_string(dy)),
                  0.0f);
    }
}

TEST(ColumnWalk, BitwiseOnOneSliceOneViewAndALaneTail)
{
    // nz = 1, a single view, and nx = 13 (a vector and a padded one at
    // eight lanes, one padded vector at 16).
    std::mt19937 rng(4042);
    CbctGeometry g = random_geometry(rng);
    g.num_proj = 1;
    g.vol = {13, 13, 13};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, 13);
    const ProjectionStack p = random_stack(g, rng);
    const auto mats = projection_matrices(g);
    const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
    sim::Device dev(64u << 20);
    const sim::Texture3 tex = make_texture(dev, p, Range{0, g.nv});
    EXPECT_GT(expect_column_walk_matches_at_widths(tex, pack, Dim3{13, 13, 1},
                                                   backproj::StreamOffsets{6, 0}, g.nu, g.nv,
                                                   "one slice, one view"),
              0.0f);
}

TEST(ColumnWalk, BitwiseWhenTheTexturePlaneIsNarrowerThanTheWindow)
{
    // nu < kWindow: no window fits in a texture row, so every vector
    // gathers.
    std::mt19937 rng(4043);
    CbctGeometry g = random_geometry(rng);
    g.nu = simd::kWindow - 12;
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x);
    const ProjectionStack p = random_stack(g, rng);
    const auto mats = projection_matrices(g);
    const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
    sim::Device dev(64u << 20);
    const sim::Texture3 tex = make_texture(dev, p, Range{0, g.nv});
    EXPECT_GT(expect_column_walk_matches_at_widths(tex, pack, g.vol, backproj::StreamOffsets{0, 0},
                                                   g.nu, g.nv, "narrow plane"),
              0.0f);
}

TEST(ColumnWalk, BitwiseWhenLaneColumnsSpreadWiderThanTheWindow)
{
    // 48^3 over 233 detector columns: about 4.9 columns per voxel at the
    // rotation axis, so a vector's eight lanes span more than one window
    // there and on the source side, and gather; on the far side, where
    // the magnification is smaller, they fit.
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = 8;
    g.nu = 233;
    g.nv = 40;
    g.du = g.dv = 0.4;
    g.vol = {48, 48, 48};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, 48);
    std::mt19937 rng(4044);
    const ProjectionStack p = random_stack(g, rng);
    const auto mats = projection_matrices(g);
    const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
    sim::Device dev(64u << 20);
    const sim::Texture3 tex = make_texture(dev, p, Range{0, g.nv});
    EXPECT_GT(expect_column_walk_matches_at_widths(tex, pack, Dim3{48, 48, 6},
                                                   backproj::StreamOffsets{21, 0}, g.nu, g.nv,
                                                   "233 columns"),
              0.0f);
}

TEST(ColumnWalk, BitwiseWhenWindowRowsWrapTheCircularDepth)
{
    // A full-height texture anchored mid-detector: global row proj_y maps
    // to plane 0, so a window at rows proj_y-2..proj_y or proj_y-1..proj_y+1
    // reads the last planes and then plane 0.
    std::mt19937 rng(4045);
    for (int trial = 0; trial < 3; ++trial) {
        const CbctGeometry g = random_geometry(rng);
        const auto mats = projection_matrices(g);
        const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
        sim::Device dev(256u << 20);
        const sim::Texture3 tex = random_texture(dev, g.nu, g.num_proj, g.nv, rng);
        for (const index_t proj_y : {index_t{1}, g.nv / 2, g.nv - 1}) {
            EXPECT_GT(expect_column_walk_matches_at_widths(
                          tex, pack, g.vol, backproj::StreamOffsets{0, proj_y}, g.nu, g.nv,
                          "trial " + std::to_string(trial) + " proj_y " + std::to_string(proj_y)),
                      0.0f);
        }
    }
}

/// Hand-built views (detector parallel to the axis, m[0].z == m[2].z == 0)
/// over a random texture of nv planes.
float hand_built_matches(const std::vector<Mat34>& mats, index_t nu, index_t nv, Dim3 slab,
                         const std::string& what)
{
    const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
    EXPECT_TRUE(pack.z_invariant()) << what;
    std::mt19937 rng(4046);
    sim::Device dev(16u << 20);
    const sim::Texture3 tex = random_texture(dev, nu, pack.views(), nv, rng);
    return expect_column_walk_matches_at_widths(tex, pack, slab, backproj::StreamOffsets{0, 0}, nu,
                                                nv, what);
}

TEST(ColumnWalk, BitwiseWhenOneVectorSpansThreeDetectorRows)
{
    // zn = 1 everywhere.  View 0 moves y by 0.5 a voxel, so each window
    // group's eight lanes span four detector rows and gather.  View 1 moves
    // it by 0.125, so a group spans one or two rows and takes the window.  View
    // 2 reaches x = nu - 1 (i = 14, the clamped last pair) and beyond
    // (i = 15, masked) inside a window that ends at the row's end.
    const index_t nu = 48;
    const index_t nv = 16;
    std::vector<Mat34> mats(3);
    mats[0][0] = Vec4{0.5, 0.25, 0.0, 4.0};
    mats[0][1] = Vec4{0.5, 0.25, 0.75, 0.3};
    mats[0][2] = Vec4{0.0, 0.0, 0.0, 1.0};
    mats[1][0] = Vec4{1.0, 0.5, 0.0, 2.0};
    mats[1][1] = Vec4{0.125, 0.5, 1.0, 0.7};
    mats[1][2] = Vec4{0.0, 0.0, 0.0, 1.0};
    mats[2][0] = Vec4{1.0, 0.0, 0.0, 33.0};
    mats[2][1] = Vec4{0.0, 0.25, 0.5, 1.0};
    mats[2][2] = Vec4{0.0, 0.0, 0.0, 1.0};
    EXPECT_GT(hand_built_matches(mats, nu, nv, Dim3{16, 5, 6}, "row spans"), 0.0f);
}

TEST(ColumnWalk, BitwiseWhenLanesHaveNoPositiveDepth)
{
    // zn = 1.5 - 0.25 i: lanes i = 6 (zn = 0) and from i = 7 on (zn < 0)
    // are masked and divide by the sanitised 1, so the vectors after the
    // first have no live lane, the padded last one (nx = 19) included.
    // Live lanes see y = 0.5 + 0.25 k / zn and the masked ones clamp to
    // row 0, so the vector takes the window at k = 0 and 1 and gathers
    // from k = 2 on; x stays within one window either way.
    const index_t nu = 40;
    const index_t nv = 16;
    std::vector<Mat34> mats(2);
    mats[0][0] = Vec4{-0.5, 0.0, 0.0, 3.2};
    mats[0][1] = Vec4{-0.125, 0.0, 0.25, 0.75};
    mats[0][2] = Vec4{-0.25, 0.0, 0.0, 1.5};
    // The same with a j term, so rows of a block differ.
    mats[1][0] = Vec4{-0.5, 0.125, 0.0, 3.2};
    mats[1][1] = Vec4{-0.125, 0.25, 0.25, 0.75};
    mats[1][2] = Vec4{-0.25, 0.0, 0.0, 1.5};
    EXPECT_GT(hand_built_matches(mats, nu, nv, Dim3{19, 6, 6}, "zn <= 0"), 0.0f);
}

TEST(ColumnWalk, BitwiseWhenRoundingDipsALaneBelowTheEndLanes)
{
    // zn = 0.002 i + 1 and numerators K zn: x or y is the integer K in exact
    // arithmetic, but in fp32 with FMA some middle lanes round just below
    // it (K = 3: lane 3; K = 9: lane 4) while both end lanes stay on K.
    // The window start and t_lo come from the end lanes, so only the
    // every-lane compare keeps those dips off the window path.  View 0
    // dips in x only, view 1 in y only.  A dipped lane weights its low
    // tap by about one ulp, so texels grow steeply with the column to
    // make a wrong low tap show in the sum.
    const index_t nu = 40;
    const index_t nv = 16;
    const double dz = 0.002;
    std::vector<Mat34> mats(2);
    mats[0][0] = Vec4{3 * dz, 0.0, 0.0, 3.0};
    mats[0][1] = Vec4{4 * dz, 0.0, 0.0, 4.0};
    mats[0][2] = Vec4{dz, 0.0, 0.0, 1.0};
    mats[1][0] = Vec4{4 * dz, 0.0, 0.0, 4.0};
    mats[1][1] = Vec4{9 * dz, 0.0, 0.0, 9.0};
    mats[1][2] = Vec4{dz, 0.0, 0.0, 1.0};
    const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
    sim::Device dev(16u << 20);
    sim::Texture3 tex(dev, nu, pack.views(), nv);
    std::vector<float> plane(static_cast<std::size_t>(nu * pack.views()));
    for (index_t z = 0; z < nv; ++z) {
        for (std::size_t t = 0; t < plane.size(); ++t)
            plane[t] = std::ldexp(1.0f, static_cast<int>(t) % static_cast<int>(nu)) +
                       static_cast<float>(z);
        tex.copy_planes(plane, z, 1);
    }
    EXPECT_GT(expect_column_walk_matches_at_widths(tex, pack, Dim3{16, 4, 3},
                                                   backproj::StreamOffsets{0, 0}, nu, nv,
                                                   "rounding dips"),
              0.0f);
}

TEST(ColumnWalk, BitwiseWhenOneWindowGroupFitsAndTheOtherDoesNot)
{
    // At 16 lanes each group of eight lanes needs its own window.  View 0
    // has zn = 1 - 0.04 i and x = 2 i / zn: lanes 0-7 span x 0..19.4 and
    // fit one window, lanes 8-15 span 23.5..75 and do not, so the vector
    // gathers.  View 1 mirrors it (zn = 0.4 + 0.04 i, x = 6 i / zn: lanes
    // 0-7 span 0..61.8, lanes 8-15 66.7..90).  In both, y = 3 + (0.5 k +
    // 0.25 j) / zn keeps each group within two detector rows.
    const index_t nu = 96;
    const index_t nv = 16;
    std::vector<Mat34> mats(2);
    mats[0][0] = Vec4{2.0, 0.0, 0.0, 0.0};
    mats[0][1] = Vec4{-0.12, 0.25, 0.5, 3.0};
    mats[0][2] = Vec4{-0.04, 0.0, 0.0, 1.0};
    mats[1][0] = Vec4{6.0, 0.0, 0.0, 0.0};
    mats[1][1] = Vec4{0.12, 0.25, 0.5, 1.2};
    mats[1][2] = Vec4{0.04, 0.0, 0.0, 0.4};
    EXPECT_GT(hand_built_matches(mats, nu, nv, Dim3{16, 4, 6}, "one group in its window"), 0.0f);
}

TEST(ColumnWalk, BitwiseWhenTheWindowGroupsStartOnDifferentRows)
{
    // zn = 1, x = i + 2 + 0.5 j and y = 0.25 i + 0.5 k + 1: at 16 lanes
    // both groups fit a window, and at even k lanes 0-7 lie in rows
    // t_lo = 1 + k / 2 and t_lo + 1 while lanes 8-15 lie two rows lower, so
    // each group picks its taps out of its own three rows (at odd k the
    // groups span three rows each and gather).
    const index_t nu = 40;
    const index_t nv = 16;
    std::vector<Mat34> mats(1);
    mats[0][0] = Vec4{1.0, 0.5, 0.0, 2.0};
    mats[0][1] = Vec4{0.25, 0.0, 0.5, 1.0};
    mats[0][2] = Vec4{0.0, 0.0, 0.0, 1.0};
    EXPECT_GT(hand_built_matches(mats, nu, nv, Dim3{16, 4, 6}, "groups on different rows"), 0.0f);
}

TEST(ColumnWalk, BitwiseOnWidthsOfEightModSixteen)
{
    // nx = 24 and 40: at 16 lanes the last vector is half padding, at eight
    // lanes there is no padding at all.
    std::mt19937 rng(4048);
    for (const index_t nx : {index_t{24}, index_t{40}}) {
        CbctGeometry g = random_geometry(rng);
        g.vol.x = nx;
        const ProjectionStack p = random_stack(g, rng);
        const auto mats = projection_matrices(g);
        const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
        sim::Device dev(256u << 20);
        const sim::Texture3 tex = make_texture(dev, p, Range{0, g.nv});
        EXPECT_GT(expect_column_walk_matches_at_widths(tex, pack, g.vol,
                                                       backproj::StreamOffsets{0, 0}, g.nu, g.nv,
                                                       "nx " + std::to_string(nx)),
                  0.0f);
    }
}

TEST(ColumnWalk, EveryVoxelIsItsValueInAWiderSlab)
{
    // Rows are padded to whole vectors, so a voxel's bits do not depend on
    // the slab's width: for every width w in 1 .. 2 kLanes + 1, each voxel
    // of the width-w slab must equal the same voxel of every slab up to
    // kLanes wider, at pool widths 1 and 4.  (A scalar tail that fuses its
    // accumulate, as one compiled for FMA did, misses here by an ulp on
    // about 40 % of its voxels.)
    constexpr index_t W = simd::kLanes;
    const index_t widest = 3 * W + 1;
    std::mt19937 rng(4049);
    CbctGeometry g = random_geometry(rng);
    g.nu = 64;
    g.vol = {widest, widest, widest};
    g.dx = g.dy = g.dz = 0.5 * CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, widest);
    const ProjectionStack p = random_stack(g, rng);
    const auto mats = projection_matrices(g);
    const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
    sim::Device dev(256u << 20);
    const sim::Texture3 tex = make_texture(dev, p, Range{0, g.nv});
    const backproj::StreamOffsets off{widest / 2 - 2, 0};
    for (const int width : {1, 4}) {
        const testutil::ScopedThreads cap(width);
        std::vector<Volume> slabs;
        for (index_t w = 1; w <= widest; ++w) {
            slabs.emplace_back(Dim3{w, 5, 4});
            backproj::backproject_streaming(tex, pack, slabs.back(), off, g.nu, g.nv);
        }
        for (index_t w = 1; w <= 2 * W + 1; ++w) {
            const Volume& narrow = slabs[static_cast<std::size_t>(w - 1)];
            EXPECT_GT(max_abs(narrow.span()), 0.0f) << "width " << w;
            for (index_t wide = w + 1; wide <= w + W; ++wide) {
                const Volume& other = slabs[static_cast<std::size_t>(wide - 1)];
                for (index_t k = 0; k < 4; ++k)
                    for (index_t j = 0; j < 5; ++j)
                        for (index_t i = 0; i < w; ++i)
                            ASSERT_EQ(std::bit_cast<std::uint32_t>(narrow.at(i, j, k)),
                                      std::bit_cast<std::uint32_t>(other.at(i, j, k)))
                                << "pool width " << width << ": voxel (" << i << ", " << j
                                << ", " << k << ") of width " << w << " vs " << wide;
            }
        }
    }
}

// ---- fp32 FFT vs double reference (randomized sizes) ----------------------

TEST(Fp32Fft, MatchesDoubleReferenceAcrossSizes)
{
    std::mt19937 rng(99);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    for (index_t n : {8, 32, 128, 512, 2048}) {
        std::vector<std::complex<double>> d(static_cast<std::size_t>(n));
        std::vector<std::complex<float>> f(static_cast<std::size_t>(n));
        for (std::size_t i = 0; i < d.size(); ++i) {
            d[i] = {u(rng), u(rng)};
            f[i] = std::complex<float>(d[i]);
        }
        fft::transform_reference(d, false);
        fft::transform_f(f, false);
        double mag = 0.0;
        for (const auto& c : d) mag = std::max(mag, std::abs(c));
        // fp32 round-off grows ~ eps * log2(n); 1e-5 relative carries >10x
        // margin at n = 2048.
        const double tol = 1e-5 * mag;
        for (std::size_t i = 0; i < d.size(); ++i)
            ASSERT_NEAR(std::abs(std::complex<double>(f[i]) - d[i]), 0.0, tol)
                << "n=" << n << " bin " << i;
    }
}

TEST(Fp32Fft, InverseRoundTripRestoresSignal)
{
    std::mt19937 rng(123);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    for (index_t n : {16, 256, 1024}) {
        std::vector<std::complex<float>> f(static_cast<std::size_t>(n));
        for (auto& c : f) c = {u(rng), u(rng)};
        const auto orig = f;
        fft::transform_f(f, false);
        fft::transform_f(f, true);
        for (std::size_t i = 0; i < f.size(); ++i)
            ASSERT_NEAR(std::abs(f[i] - orig[i]), 0.0f, 1e-5f) << "n=" << n << " bin " << i;
    }
}

TEST(PlanCache, ReturnsStableReferencePerSize)
{
    const fft::Plan& a = fft::plan_for(256);
    const fft::Plan& b = fft::plan_for(256);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.n, 256);
    EXPECT_EQ(a.bitrev.size(), 256u);
    EXPECT_EQ(a.twiddle_f.size(), 128u);
    EXPECT_EQ(a.twiddle_d.size(), 128u);
    // Stage-major layout: log2(n) stages, sum of len/2 roots = n - 1, and
    // each stage's table is the strided view of the root table laid dense.
    EXPECT_EQ(a.stage_offset.size(), 8u);
    EXPECT_EQ(a.stage_twiddle_f.size(), 255u);
    EXPECT_EQ(a.stage_twiddle_d.size(), 255u);
    for (std::size_t stage = 0, len = 2; len <= 256; len <<= 1, ++stage) {
        const std::size_t stride = 256 / len;
        for (std::size_t j = 0; j < len / 2; ++j) {
            ASSERT_EQ(a.stage_twiddle_d[a.stage_offset[stage] + j], a.twiddle_d[j * stride]);
            ASSERT_EQ(a.stage_twiddle_f[a.stage_offset[stage] + j], a.twiddle_f[j * stride]);
        }
    }
    const fft::Plan& c = fft::plan_for(64);
    EXPECT_NE(&a, &c);
}

TEST(PlanCache, PlannedDoubleMatchesReference)
{
    std::mt19937 rng(5);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<std::complex<double>> a(512), b(512);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = b[i] = std::complex<double>{u(rng), u(rng)};
    fft::transform(a, false);
    fft::transform_reference(b, false);
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-12) << i;
}

// ---- fp32 filtering vs double reference -----------------------------------

TEST(Fp32Filter, ApplyRowMatchesReferenceRow)
{
    std::mt19937 rng(31);
    std::uniform_real_distribution<float> u(0.0f, 2.0f);
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = 48;
    g.nu = 96;
    g.nv = 40;
    g.du = g.dv = 0.5;
    g.vol = {48, 48, 48};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x);
    const filter::FilterEngine eng(g, filter::Window::Hamming);

    for (int trial = 0; trial < 8; ++trial) {
        std::vector<float> row(static_cast<std::size_t>(g.nu));
        for (float& v : row) v = u(rng);
        std::vector<float> ref = row;
        const index_t vg = static_cast<index_t>(trial * 5) % g.nv;
        eng.apply_row(row, vg);
        eng.apply_row_reference(ref, vg);
        // fp32 transform vs double reference: bounded by a few ulp of the
        // padded-row scale; 1e-4 relative to the filtered maximum carries
        // ~20x margin on this size.
        const float tol = 1e-4f * std::max(1.0f, max_abs(ref));
        for (std::size_t i = 0; i < row.size(); ++i)
            ASSERT_NEAR(row[i], ref[i], tol) << "trial " << trial << " u " << i;
    }
}

TEST(Fp32Filter, ReferencePathsAgreeBitwiseWithSeedAlgorithm)
{
    // apply_reference must remain the seed per-call path: double precision
    // throughout, so it agrees with convolve_same exactly.
    std::mt19937 rng(43);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    const index_t row_len = 40;
    const auto taps = filter::ramp_kernel(12, 0.7);
    const fft::RowConvolver conv(row_len, taps, static_cast<index_t>(taps.size() - 1) / 2);
    std::vector<float> row(static_cast<std::size_t>(row_len));
    for (float& v : row) v = u(rng);
    const std::vector<float> direct =
        fft::convolve_same(row, taps, static_cast<index_t>(taps.size() - 1) / 2);
    conv.apply_reference(row);
    for (std::size_t i = 0; i < row.size(); ++i) ASSERT_FLOAT_EQ(row[i], direct[i]) << i;
}

// ---- zero-allocation guarantee on warm hot paths --------------------------

TEST(ScratchPool, RowConvolverApplyIsAllocationFreeWhenWarm)
{
    const auto taps = filter::ramp_kernel(16, 0.5);
    const fft::RowConvolver conv(64, taps, 16);
    std::vector<float> row(64, 1.0f);
    conv.apply(row);  // warm: populates the thread's free list
    const std::uint64_t before = scratch::heap_events();
    for (int i = 0; i < 10; ++i) conv.apply(row);
    EXPECT_EQ(scratch::heap_events() - before, 0u);
}

TEST(ScratchPool, KernelInnerLoopIsAllocationFreeWhenWarm)
{
    std::mt19937 rng(17);
    const CbctGeometry g = random_geometry(rng);
    const ProjectionStack p = random_stack(g, rng);
    const auto mats = projection_matrices(g);
    const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
    sim::Device dev(256u << 20);
    const sim::Texture3 tex = make_texture(dev, p, Range{0, g.nv});
    Volume vol(g.vol);
    backproj::backproject_streaming(tex, pack, vol, backproj::StreamOffsets{0, 0}, g.nu, g.nv);
    const std::uint64_t before = scratch::heap_events();
    for (int i = 0; i < 3; ++i)
        backproj::backproject_streaming(tex, pack, vol, backproj::StreamOffsets{0, 0}, g.nu,
                                        g.nv);
    EXPECT_EQ(scratch::heap_events() - before, 0u);
}

TEST(ScratchPool, FilterEngineApplyIsAllocationFreeWhenWarm)
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = 32;
    g.nu = 64;
    g.nv = 16;
    g.du = g.dv = 0.5;
    g.vol = {32, 32, 32};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x);
    const filter::FilterEngine eng(g);
    ProjectionStack stack(4, g.nv, g.nu, 1.0f);
    eng.apply(stack);  // warm: this thread's lease for every pool slot
    const std::uint64_t before = scratch::heap_events();
    for (int i = 0; i < 5; ++i) eng.apply(stack);
    EXPECT_EQ(scratch::heap_events() - before, 0u);
}

TEST(ScratchPool, BufferReusesReturnedCapacity)
{
    // Lease/return cycles of the same size must hit the free list.
    { scratch::Buffer<double> warm(333); }
    const std::uint64_t before = scratch::heap_events();
    for (int i = 0; i < 20; ++i) { scratch::Buffer<double> b(333); }
    EXPECT_EQ(scratch::heap_events() - before, 0u);
    // A larger request than anything pooled is a (counted) heap event.
    { scratch::Buffer<double> big(100000); }
    EXPECT_GE(scratch::heap_events() - before, 1u);
}

}  // namespace
}  // namespace xct
