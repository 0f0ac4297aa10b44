#pragma once
// Explicit-SIMD lanes for the hot-path kernels (DESIGN.md §3e).
//
// One lane type, Lanes<T, N>: N lanes of T in one GCC/Clang vector
// extension value, whose arithmetic, compares, selects, splat, load/store,
// lane reads and conversions are written once below for any width.  The
// aliases name what the callers use:
//   * VecF / VecI / Mask (kLanes lanes): the streaming back-projection's
//     affine index arithmetic, floor, clamp, compares feeding blend masks,
//     lane reads, int conversion and the two ways to fetch adjacent pairs
//     (both taps of a bilinear interpolation per lane): gathers from flat
//     arrays, and picks out of one kWindow-float window per group of
//     kGroup lanes (group_lo and group_heads read a group's end lanes and
//     its first lane).  Eq. 1 adds a sign flip and log_, glibc's logf
//     algorithm with its table written out once, whose lanes give the
//     scalar log_'s bits;
//   * VecD / MaskD (kLanesD lanes): the analytic phantom projector's;
//   * batch::VecF: the FFT's batches of eight, at most eight floats wide.
// The widths follow the target ISA and never exceed its registers (GCC
// lowers a compare or select on a wider vector lane by lane):
//   * AVX-512F (e.g. -march=x86-64-v4): 16 float lanes, 4 double, batch 8;
//   * AVX2 (e.g. -march=x86-64-v3): 8, 4 and 8;
//   * every other target ("generic": x86-64's SSE2, aarch64): one 16-byte
//     register, so 4, 2 and 4.
// Target intrinsics remain only where a vector expression cannot say the
// operation: fmadd's fused form on x86 FMA targets, floor_ at 256 and 512
// bits, sqrt_ on 256-bit doubles, AVX-512's mask registers, AVX2's
// movemask for none and all, the pair fetches and the log table reads.
// Elsewhere per-lane work goes through a std::array.
//
// Semantics contract:
//   * all lane operations are IEEE single (VecF) or double (VecD)
//     precision, one rounding per op, so a lane computes what the same
//     scalar op computes, bit for bit (fmadd fuses exactly when the target
//     has FMA, here and in its scalar overload, so code written with it
//     rounds alike at any width; the back-projection kernel is still
//     ULP-bounded, not bitwise, against the scalar Listing-1 loop — see
//     test_simd).  A caller that must not fuse anything else compiles
//     with -ffp-contract=off: GCC would contract a lane multiply into a
//     following add like any other;
//   * blend(m, a, b) selects a where m is true, b elsewhere; min_(a, b) is
//     a < b ? a : b and max_(a, b) is a > b ? a : b, x86's operand rule;
//   * gather_pair reads base[idx[lane]] and base[idx[lane] + 1] for every
//     lane — callers mask/clamp indices BEFORE gathering, out-of-range
//     lanes are not tolerated;
//   * window_pair(w, idx) returns, in the lanes of group g, what
//     gather_pair(w[g], idx) returns there, for every idx[lane] in
//     [0, kWindow - 2], and may read all of w[g][0, kWindow); kWindowLoads
//     says whether it is loads and register permutes (true) or the gather
//     itself (false), so a caller can keep the window test off targets
//     where it cannot pay.

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace xct::simd {

/// Scalar a*b + c, fused exactly when the target has FMA — never left to
/// contraction, which may fuse either product of a*b - c*d, or neither.
template <std::floating_point T>
inline T fmadd(T a, T b, T c)
{
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
    return std::fma(a, b, c);
#else
    return a * b + c;
#endif
}

/// The natural log of glibc's logf (since 2.28), from Arm's optimized-routines
/// (math/logf.c and math/logf_data.c, MIT OR Apache-2.0): x = 2^k z with z
/// in [0x3f330000, 2 * 0x3f330000) as bits, c_i near the centre of z's
/// sixteenth, log(x) = log1p(z / c_i - 1) + log(c_i) + k ln 2, the log1p
/// a degree-4 polynomial in double, rounded once to float.  Over the
/// positive normal floats it matches glibc 2.36's logf bit for bit whether
/// every a*b + c below fuses or none does, so fmadd's per-target rule keeps
/// the bits on every target (test_preprocess sweeps all 2^32 Eq. 1 inputs).
namespace logf_data {
inline constexpr double kInvc[16] = {
    0x1.661ec79f8f3bep+0, 0x1.571ed4aaf883dp+0, 0x1.49539f0f010bp+0,  0x1.3c995b0b80385p+0,
    0x1.30d190c8864a5p+0, 0x1.25e227b0b8eap+0,  0x1.1bb4a4a1a343fp+0, 0x1.12358f08ae5bap+0,
    0x1.0953f419900a7p+0, 0x1p+0,               0x1.e608cfd9a47acp-1, 0x1.ca4b31f026aap-1,
    0x1.b2036576afce6p-1, 0x1.9c2d163a1aa2dp-1, 0x1.886e6037841edp-1, 0x1.767dcf5534862p-1,
};
inline constexpr double kLogc[16] = {
    -0x1.57bf7808caadep-2, -0x1.2bef0a7c06ddbp-2, -0x1.01eae7f513a67p-2, -0x1.b31d8a68224e9p-3,
    -0x1.6574f0ac07758p-3, -0x1.1aa2bc79c81p-3,   -0x1.a4e76ce8c0e5ep-4, -0x1.1973c5a611cccp-4,
    -0x1.252f438e10c1ep-5, 0x0p+0,                0x1.aa5aa5df25984p-5,  0x1.c5e53aa362eb4p-4,
    0x1.526e57720db08p-3,  0x1.bc2860d22477p-3,   0x1.1058bc8a07ee1p-2,  0x1.4043057b6ee09p-2,
};
inline constexpr double kLn2 = 0x1.62e42fefa39efp-1;
inline constexpr double kA0 = -0x1.00ea348b88334p-2;
inline constexpr double kA1 = 0x1.5575b0be00b6ap-2;
inline constexpr double kA2 = -0x1.ffffef20a4123p-2;
inline constexpr std::uint32_t kOff = 0x3f330000;           ///< bits of the lowest z
inline constexpr std::uint32_t kSignExponent = 0xff800000;  ///< the bits 2^k scales
}  // namespace logf_data

/// log(x) by the table algorithm above for a positive normal x; anything
/// else (zero, negatives, subnormals, +inf, NaN) is std::log's.
inline float log_(float x)
{
    namespace d = logf_data;
    const std::uint32_t ix = std::bit_cast<std::uint32_t>(x);
    if (ix - 0x00800000u >= 0x7f800000u - 0x00800000u) return std::log(x);
    const std::uint32_t tmp = ix - d::kOff;
    const std::size_t i = (tmp >> 19) & 15;
    const int k = static_cast<std::int32_t>(tmp) >> 23;
    const double z = std::bit_cast<float>(ix - (tmp & d::kSignExponent));
    const double r = fmadd(z, d::kInvc[i], -1.0);
    const double y0 = fmadd(static_cast<double>(k), d::kLn2, d::kLogc[i]);
    const double r2 = r * r;
    double y = fmadd(d::kA1, r, d::kA2);
    y = fmadd(d::kA0, r2, y);
    y = fmadd(y, r2, y0 + r);
    return static_cast<float>(y);
}

#if defined(__AVX512F__)
inline constexpr int kLanes = 16, kLanesD = 4, kBatchLanes = 8;
inline constexpr const char* backend_name() { return "avx512"; }
#elif defined(__AVX2__)
inline constexpr int kLanes = 8, kLanesD = 4, kBatchLanes = 8;
inline constexpr const char* backend_name() { return "avx2"; }
#else
inline constexpr int kLanes = 4, kLanesD = 2, kBatchLanes = 4;
inline constexpr const char* backend_name() { return "generic"; }
#endif

/// N lanes of T in one vector-extension value.  A struct, not the raw
/// vector: returning a raw 32-byte vector from a function in a TU without
/// AVX warns (-Wpsabi), a struct holding one does not.
template <class T, int N>
struct Lanes {
    typedef T V __attribute__((vector_size(N * sizeof(T))));
    V v;
};

/// A compare's result on Lanes<T, N>: each lane all ones or all zeros.
template <class T, int N>
struct LaneMask {
    using V = decltype(typename Lanes<T, N>::V{} > typename Lanes<T, N>::V{});
    V m;
};

using VecF = Lanes<float, kLanes>;
using VecI = Lanes<std::int32_t, kLanes>;
using VecD = Lanes<double, kLanesD>;
using MaskD = LaneMask<double, kLanesD>;

/// The lanes f(0), ..., f(N - 1), each written in place (so a splat of -0
/// stays -0, which an add to a zero vector would not).
template <class T, int N, class F>
inline Lanes<T, N> make(F f)
{
    return [&]<std::size_t... L>(std::index_sequence<L...>) {
        return Lanes<T, N>{typename Lanes<T, N>::V{f(static_cast<int>(L))...}};
    }(std::make_index_sequence<N>{});
}

template <class T, int N>
inline Lanes<T, N> load_n(const T* p)
{
    Lanes<T, N> r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
}

template <class T, int N>
inline void store(T* p, Lanes<T, N> a)
{
    std::memcpy(p, &a.v, sizeof(a.v));
}

inline VecF splat(float x) { return make<float, kLanes>([x](int) { return x; }); }
inline VecD splat_d(double x) { return make<double, kLanesD>([x](int) { return x; }); }
inline VecI splat_i(std::int32_t x) { return make<std::int32_t, kLanes>([x](int) { return x; }); }
inline VecF iota() { return make<float, kLanes>([](int l) { return static_cast<float>(l); }); }
inline VecF load(const float* p) { return load_n<float, kLanes>(p); }
inline VecD load(const double* p) { return load_n<double, kLanesD>(p); }
inline VecI load_i(const std::int32_t* p) { return load_n<std::int32_t, kLanes>(p); }
inline void store_i(std::int32_t* p, VecI a) { store(p, a); }

/// f on every lane, through memory.
template <class T, int N, class F>
inline Lanes<T, N> each_lane(Lanes<T, N> a, F f)
{
    std::array<T, N> x;
    store(x.data(), a);
    for (T& e : x) e = f(e);
    return load_n<T, N>(x.data());
}

template <class T, int N>
inline Lanes<T, N> operator+(Lanes<T, N> a, Lanes<T, N> b) { return {a.v + b.v}; }
template <class T, int N>
inline Lanes<T, N> operator-(Lanes<T, N> a, Lanes<T, N> b) { return {a.v - b.v}; }
template <class T, int N>
inline Lanes<T, N> operator*(Lanes<T, N> a, Lanes<T, N> b) { return {a.v * b.v}; }
template <class T, int N>
inline Lanes<T, N> operator/(Lanes<T, N> a, Lanes<T, N> b) { return {a.v / b.v}; }
/// Flips the sign bit, so -(+0) is -0 and a NaN keeps its payload.
template <class T, int N>
inline Lanes<T, N> operator-(Lanes<T, N> a) { return {-a.v}; }

/// a*b + c, fused when the target has FMA; one extra rounding otherwise.
template <class T, int N>
inline Lanes<T, N> fmadd(Lanes<T, N> a, Lanes<T, N> b, Lanes<T, N> c)
{
#if defined(__FMA__) && defined(__AVX512F__)
    if constexpr (sizeof(a) == 64 && std::is_same_v<T, float>)
        return {_mm512_fmadd_ps(a.v, b.v, c.v)};
    else if constexpr (sizeof(a) == 64)
        return {_mm512_fmadd_pd(a.v, b.v, c.v)};
#endif
#if defined(__FMA__) && defined(__AVX2__)
    if constexpr (sizeof(a) == 32 && std::is_same_v<T, float>)
        return {_mm256_fmadd_ps(a.v, b.v, c.v)};
    else if constexpr (sizeof(a) == 32)
        return {_mm256_fmadd_pd(a.v, b.v, c.v)};
#endif
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
    Lanes<T, N> r;
    for (int l = 0; l < N; ++l) r.v[l] = std::fma(a.v[l], b.v[l], c.v[l]);
    return r;
#else
    // Where the product and c are both NaN the scalar a*b + c gives the
    // product's (x86 returns an add's first NaN), and GCC may commute a
    // vector add, so a select keeps the product's.
    const typename Lanes<T, N>::V p = a.v * b.v;
    return {p != p ? p : p + c.v};
#endif
}

template <class T, int N>
inline Lanes<T, N> floor_(Lanes<T, N> a)
{
#if defined(__AVX512F__)
    if constexpr (sizeof(a) == 64)
        return {_mm512_maskz_roundscale_ps(0xFFFF, a.v, _MM_FROUND_FLOOR)};
#endif
#if defined(__AVX2__)
    if constexpr (sizeof(a) == 32) return {_mm256_floor_ps(a.v)};
#endif
    return each_lane(a, [](T x) { return std::floor(x); });
}

template <class T, int N>
inline Lanes<T, N> sqrt_(Lanes<T, N> a)
{
#if defined(__AVX2__)
    if constexpr (sizeof(a) == 32 && std::is_same_v<T, double>) return {_mm256_sqrt_pd(a.v)};
#endif
    return each_lane(a, [](T x) { return std::sqrt(x); });
}

template <class T, int N>
inline Lanes<T, N> min_(Lanes<T, N> a, Lanes<T, N> b) { return {a.v < b.v ? a.v : b.v}; }
template <class T, int N>
inline Lanes<T, N> max_(Lanes<T, N> a, Lanes<T, N> b) { return {a.v > b.v ? a.v : b.v}; }
/// Clamp every lane to [lo, hi].
template <class T, int N>
inline Lanes<T, N> clamp(Lanes<T, N> a, Lanes<T, N> lo, Lanes<T, N> hi)
{
    return min_(max_(a, lo), hi);
}

template <class T, int N>
inline LaneMask<T, N> cmp_gt(Lanes<T, N> a, Lanes<T, N> b) { return {a.v > b.v}; }
template <class T, int N>
inline LaneMask<T, N> cmp_ge(Lanes<T, N> a, Lanes<T, N> b) { return {a.v >= b.v}; }
template <class T, int N>
inline LaneMask<T, N> cmp_le(Lanes<T, N> a, Lanes<T, N> b) { return {a.v <= b.v}; }
template <class T, int N>
inline LaneMask<T, N> operator&(LaneMask<T, N> a, LaneMask<T, N> b) { return {a.m & b.m}; }
template <class T, int N>
inline Lanes<T, N> blend(LaneMask<T, N> m, Lanes<T, N> a, Lanes<T, N> b)
{
    return {m.m ? a.v : b.v};
}

/// The mask's 64-bit words folded with | (every = false) or & (true).
template <class T, int N>
inline std::uint64_t fold_words(LaneMask<T, N> m, bool every)
{
    std::array<std::uint64_t, sizeof(m) / 8> w;
    std::memcpy(w.data(), &m, sizeof(m));
    std::uint64_t r = every ? ~std::uint64_t{0} : 0;
    for (const std::uint64_t x : w) r = every ? r & x : r | x;
    return r;
}

template <class T, int N>
inline bool none(LaneMask<T, N> m)
{
#if defined(__AVX2__)
    if constexpr (sizeof(m) == 32 && sizeof(T) == 4) return _mm256_movemask_ps((__m256)m.m) == 0;
    else if constexpr (sizeof(m) == 32) return _mm256_movemask_pd((__m256d)m.m) == 0;
#endif
    return fold_words(m, false) == 0;
}

template <class T, int N>
inline bool all(LaneMask<T, N> m)
{
#if defined(__AVX2__)
    if constexpr (sizeof(m) == 32 && sizeof(T) == 4) return _mm256_movemask_ps((__m256)m.m) == 0xFF;
    else if constexpr (sizeof(m) == 32) return _mm256_movemask_pd((__m256d)m.m) == 0xF;
#endif
    return fold_words(m, true) == ~std::uint64_t{0};
}

template <int L, class T, int N>
    requires(L >= 0 && L < N)
inline T lane(Lanes<T, N> a)
{
    return a.v[L];
}

/// Truncating float->int32 conversion (callers floor first).
template <int N>
inline Lanes<std::int32_t, N> to_int(Lanes<float, N> a)
{
    return {__builtin_convertvector(a.v, typename Lanes<std::int32_t, N>::V)};
}

/// Lanes for fixed batches of eight floats (the FFT's kBatch, sized for
/// L1): at most eight wide, so a batch is a whole number of vectors.
namespace batch {
inline constexpr int kLanes = kBatchLanes;
using VecF = Lanes<float, kLanes>;
inline VecF splat(float x) { return make<float, kLanes>([x](int) { return x; }); }
inline VecF load(const float* p) { return load_n<float, kLanes>(p); }
using simd::fmadd;
using simd::store;
}  // namespace batch

#if defined(__AVX512F__)

// Where the plain intrinsic passes an undefined vector through its write
// mask, the all-lanes masked form stands in: the same instruction, without
// the pass-through GCC 12 warns about (-Wmaybe-uninitialized).

/// The float lanes' compares write a mask register, a bit per lane.
struct Mask {
    __mmask16 m;
};

inline Mask cmp_gt(VecF a, VecF b) { return {_mm512_cmp_ps_mask(a.v, b.v, _CMP_GT_OQ)}; }
inline Mask cmp_ge(VecF a, VecF b) { return {_mm512_cmp_ps_mask(a.v, b.v, _CMP_GE_OQ)}; }
inline Mask cmp_le(VecF a, VecF b) { return {_mm512_cmp_ps_mask(a.v, b.v, _CMP_LE_OQ)}; }
inline Mask operator&(Mask a, Mask b) { return {_mm512_kand(a.m, b.m)}; }
inline bool none(Mask m) { return m.m == 0; }
/// Expected to hold, as at the kernel's window tests and log_'s table path:
/// at GCC 12's default estimate the register allocator spills two vectors
/// inside the kernel's window path, fdk-tomo29's hot path.
inline bool all(Mask m) { return __builtin_expect(m.m == 0xFFFF, 1); }
inline VecF blend(Mask m, VecF a, VecF b) { return {_mm512_mask_blend_ps(m.m, b.v, a.v)}; }

/// log_ on lanes that all hold positive normals: the table algorithm on
/// two halves of eight doubles, each table read one two-source permute of
/// its sixteen entries.
inline VecF log_lanes(VecF x)
{
    namespace d = logf_data;
    const __m512i ix = _mm512_castps_si512(x.v);
    const __m512i tmp =
        _mm512_sub_epi32(ix, _mm512_set1_epi32(static_cast<std::int32_t>(d::kOff)));
    const __m512i i =
        _mm512_and_si512(_mm512_maskz_srli_epi32(0xFFFF, tmp, 19), _mm512_set1_epi32(15));
    const __m512i k = _mm512_maskz_srai_epi32(0xFFFF, tmp, 23);
    const __m512i z = _mm512_sub_epi32(
        ix, _mm512_and_si512(tmp, _mm512_set1_epi32(static_cast<std::int32_t>(d::kSignExponent))));
    const __m512d invc_lo = _mm512_loadu_pd(d::kInvc), invc_hi = _mm512_loadu_pd(d::kInvc + 8);
    const __m512d logc_lo = _mm512_loadu_pd(d::kLogc), logc_hi = _mm512_loadu_pd(d::kLogc + 8);
    using D8 = Lanes<double, 8>;
    const auto c = [](double v) { return make<double, 8>([v](int) { return v; }); };
    const auto half = [&](__m256i ih, __m256i kh, __m256i zh) {
        const __m512i at = _mm512_maskz_cvtepi32_epi64(0xFF, ih);
        const D8 r = fmadd(D8{_mm512_maskz_cvtps_pd(0xFF, _mm256_castsi256_ps(zh))},
                           D8{_mm512_permutex2var_pd(invc_lo, at, invc_hi)}, c(-1.0));
        const D8 y0 = fmadd(D8{_mm512_maskz_cvtepi32_pd(0xFF, kh)}, c(d::kLn2),
                            D8{_mm512_permutex2var_pd(logc_lo, at, logc_hi)});
        const D8 r2 = r * r;
        D8 y = fmadd(c(d::kA1), r, c(d::kA2));
        y = fmadd(c(d::kA0), r2, y);
        y = fmadd(y, r2, y0 + r);
        return _mm256_castps_pd(_mm512_maskz_cvtpd_ps(0xFF, y.v));
    };
    const __m256d lo = half(_mm512_maskz_extracti64x4_epi64(0xF, i, 0),
                            _mm512_maskz_extracti64x4_epi64(0xF, k, 0),
                            _mm512_maskz_extracti64x4_epi64(0xF, z, 0));
    const __m256d hi = half(_mm512_maskz_extracti64x4_epi64(0xF, i, 1),
                            _mm512_maskz_extracti64x4_epi64(0xF, k, 1),
                            _mm512_maskz_extracti64x4_epi64(0xF, z, 1));
    return {_mm512_castpd_ps(_mm512_maskz_insertf64x4(0xFF, _mm512_castpd256_pd512(lo), hi, 1))};
}

/// {base[idx], base[idx + 1]} per lane, for T = float or std::int32_t.
template <typename T>
    requires std::is_same_v<T, float> || std::is_same_v<T, std::int32_t>
inline auto gather_pair(const T* base, VecI idx)
{
    // One unaligned 64-bit element per lane, eight lanes per gather; its
    // low half is base[idx] (x86 is little-endian), and two two-source
    // permutes collect the low and the high halves of both gathers.  Their
    // mask is kxnor's all ones, not the constant 0xFF: for a constant full
    // mask GCC drops the zero a gather merges into, and the gather then
    // waits on whatever its register held before (in the kernel, the
    // previous k's interpolation: fdk-bean-q8's slab, whose taps are all
    // gathers, ran 9 % slower).  GCC 12 folds the kxnor only after it has
    // kept the zero; a compare that holds in every lane keeps it too, but
    // cost that slab 4 %.
    const __m512i at = (__m512i)idx.v;
    const __mmask8 every = static_cast<__mmask8>(_kxnor_mask16(0, 0));
    const __m512i q0 = _mm512_mask_i32gather_epi64(
        _mm512_setzero_si512(), every, _mm512_maskz_extracti64x4_epi64(0xF, at, 0), base, 4);
    const __m512i q1 = _mm512_mask_i32gather_epi64(
        _mm512_setzero_si512(), every, _mm512_maskz_extracti64x4_epi64(0xF, at, 1), base, 4);
    const __m512i even =
        _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
    const __m512i odd =
        _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31);
    const __m512i lo = _mm512_permutex2var_epi32(q0, even, q1);
    const __m512i hi = _mm512_permutex2var_epi32(q0, odd, q1);
    using L = Lanes<T, kLanes>;
    return std::pair{L{(typename L::V)lo}, L{(typename L::V)hi}};
}

/// Lanes per window group (window_pair reads one window per group), and
/// groups per vector.
inline constexpr int kGroup = 8;
inline constexpr int kGroups = kLanes / kGroup;
inline constexpr bool kWindowLoads = true;

/// Per window group, the lower of its first and last lane, in each of its
/// lanes; and lane 0 of every group.  The shuffles are vector expressions,
/// not permute intrinsics: GCC does not sink a target builtin (it may
/// throw), so the kernel would pay for them outside its window branch too.
inline VecF group_lo(VecF a)
{
    const VecF first{__builtin_shufflevector(a.v, a.v, 0, 0, 0, 0, 0, 0, 0, 0, 8, 8, 8, 8, 8, 8,
                                             8, 8)};
    const VecF last{__builtin_shufflevector(a.v, a.v, 7, 7, 7, 7, 7, 7, 7, 7, 15, 15, 15, 15, 15,
                                            15, 15, 15)};
    return min_(first, last);
}
inline std::array<float, kGroups> group_heads(VecF a) { return {lane<0>(a), lane<8>(a)}; }

/// {w[g][idx], w[g][idx + 1]} in the lanes of group g.  Per group, its
/// window's two 16-float loads feed one two-source permute whose low eight
/// lanes pick w[g][idx] and high eight w[g][idx + 1] of the group's lanes;
/// two 128-bit shuffles then put each group's picks back in its lanes.
inline std::pair<VecF, VecF> window_pair(const std::array<const float*, kGroups>& w,
                                         VecI idx)
{
    const VecI next = idx + splat_i(1);
    const __m512i at = (__m512i)idx.v;
    const __m512i at1 = (__m512i)next.v;
    const __m512i pick0 = _mm512_maskz_shuffle_i32x4(0xFFFF, at, at1, 0x44);
    const __m512i pick1 = _mm512_maskz_shuffle_i32x4(0xFFFF, at, at1, 0xEE);
    const __m512 p0 =
        _mm512_permutex2var_ps(_mm512_loadu_ps(w[0]), pick0, _mm512_loadu_ps(w[0] + 16));
    const __m512 p1 =
        _mm512_permutex2var_ps(_mm512_loadu_ps(w[1]), pick1, _mm512_loadu_ps(w[1] + 16));
    return {VecF{_mm512_maskz_shuffle_f32x4(0xFFFF, p0, p1, 0x44)},
            VecF{_mm512_maskz_shuffle_f32x4(0xFFFF, p0, p1, 0xEE)}};
}

#else

using Mask = LaneMask<float, kLanes>;

#if defined(__AVX2__)

/// log_ on lanes that all hold positive normals: the table algorithm on
/// two halves of four doubles, each table read one gather.
inline VecF log_lanes(VecF x)
{
    namespace d = logf_data;
    const __m256i ix = _mm256_castps_si256(x.v);
    const __m256i tmp = _mm256_sub_epi32(ix, _mm256_set1_epi32(static_cast<std::int32_t>(d::kOff)));
    const __m256i i = _mm256_and_si256(_mm256_srli_epi32(tmp, 19), _mm256_set1_epi32(15));
    const __m256i k = _mm256_srai_epi32(tmp, 23);
    const __m256 z = _mm256_castsi256_ps(_mm256_sub_epi32(
        ix, _mm256_and_si256(tmp, _mm256_set1_epi32(static_cast<std::int32_t>(d::kSignExponent)))));
    // The masked gather with every lane on: the plain one passes an
    // undefined vector through, which GCC 12 warns about.
    const auto table = [](const double* t, __m128i at) {
        return VecD{_mm256_mask_i32gather_pd(_mm256_setzero_pd(), t, at,
                                             _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8)};
    };
    const auto half = [&](__m128i ih, __m128i kh, __m128 zh) {
        const VecD r = fmadd(VecD{_mm256_cvtps_pd(zh)}, table(d::kInvc, ih), splat_d(-1.0));
        const VecD y0 = fmadd(VecD{_mm256_cvtepi32_pd(kh)}, splat_d(d::kLn2), table(d::kLogc, ih));
        const VecD r2 = r * r;
        VecD y = fmadd(splat_d(d::kA1), r, splat_d(d::kA2));
        y = fmadd(splat_d(d::kA0), r2, y);
        y = fmadd(y, r2, y0 + r);
        return _mm256_cvtpd_ps(y.v);
    };
    return {_mm256_set_m128(half(_mm256_extracti128_si256(i, 1), _mm256_extracti128_si256(k, 1),
                                 _mm256_extractf128_ps(z, 1)),
                            half(_mm256_castsi256_si128(i), _mm256_castsi256_si128(k),
                                 _mm256_castps256_ps128(z)))};
}

/// {base[idx], base[idx + 1]} per lane, for T = float or std::int32_t:
/// two 32-bit gathers, measured faster than two 4-lane 64-bit gathers plus
/// the permutes that split them.
template <typename T>
    requires std::is_same_v<T, float> || std::is_same_v<T, std::int32_t>
inline auto gather_pair(const T* base, VecI idx)
{
    const auto* b = static_cast<const int*>(static_cast<const void*>(base));
    const __m256i at = (__m256i)idx.v;
    const __m256i lo = _mm256_i32gather_epi32(b, at, 4);
    const __m256i hi = _mm256_i32gather_epi32(b + 1, at, 4);
    using L = Lanes<T, kLanes>;
    return std::pair{L{(typename L::V)lo}, L{(typename L::V)hi}};
}

#else

/// {base[idx], base[idx + 1]} per lane, for T = float or std::int32_t, by
/// plain indexing (so sanitizers see every read).
template <typename T>
    requires std::is_same_v<T, float> || std::is_same_v<T, std::int32_t>
inline auto gather_pair(const T* base, VecI idx)
{
    std::array<std::int32_t, kLanes> ix;
    store(ix.data(), idx);
    std::array<T, kLanes> lo, hi;
    for (std::size_t l = 0; l < ix.size(); ++l) {
        lo[l] = base[ix[l]];
        hi[l] = base[ix[l] + 1];
    }
    return std::pair{load_n<T, kLanes>(lo.data()), load_n<T, kLanes>(hi.data())};
}

#endif

/// One window group spans every lane.
inline constexpr int kGroup = kLanes;
inline constexpr int kGroups = 1;
inline constexpr bool kWindowLoads = false;

inline VecF group_lo(VecF a)
{
    const float first = lane<0>(a), last = lane<kLanes - 1>(a);
    return splat(last < first ? last : first);
}
inline std::array<float, kGroups> group_heads(VecF a) { return {lane<0>(a)}; }

/// {w[0][idx], w[0][idx + 1]} per lane, as the gather.
inline std::pair<VecF, VecF> window_pair(const std::array<const float*, kGroups>& w, VecI idx)
{
    return gather_pair(w[0], idx);
}

#endif

/// Floats window_pair may read from each group's base pointer.
inline constexpr int kWindow = 32;

/// log_ on every lane, bit for bit: the target's table lanes when every
/// lane holds a positive normal, else (and on the generic target always)
/// the scalar form lane by lane.
inline VecF log_(VecF x)
{
#if defined(__AVX2__)
    if (all(cmp_ge(x, splat(std::numeric_limits<float>::min())) &
            cmp_gt(splat(std::numeric_limits<float>::infinity()), x)))
        return log_lanes(x);
#endif
    return each_lane(x, [](float f) { return log_(f); });
}

}  // namespace xct::simd
