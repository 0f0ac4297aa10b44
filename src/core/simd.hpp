#pragma once
// Portable explicit-SIMD wrapper for the hot-path kernels (DESIGN.md §3e).
//
// Exposes a fixed-width lane abstraction (VecF / VecI / Mask) with exactly
// the operations the streaming back-projection inner loop needs: splat,
// affine index arithmetic (FMA), floor, clamp, lane-wise compares feeding
// blend masks, lane reads, int conversion, and the two ways to fetch
// adjacent pairs (both taps of a bilinear interpolation per lane): gathers
// from flat arrays, and picks out of one kWindow-float window per group of
// kGroup lanes (group_lo and group_heads read a group's end lanes and its
// first lane).  A second, double-precision lane type (VecD / MaskD,
// kLanesD lanes) carries what the analytic phantom projector needs:
// splat_d, load/store, + - * / and negation, fmadd, sqrt_, cmp_gt, mask &,
// blend and none.  The FFT's batches of eight run on `batch` lanes: the
// backend's own VecF, or eight floats where VecF is wider.  Eq. 1 adds a
// sign-flip negation and log_, glibc's logf algorithm with its table
// written out once, whose lanes give the scalar log_'s bits.
// Four backends, chosen at compile time:
//
//   * AVX-512 (16 float, 4 double lanes) — x86-64 with AVX-512F
//     (__AVX512F__, e.g. -march=x86-64-v4): VecF / VecI / Mask are
//     __m512 / __m512i / __mmask16; gather_pair is two 8 x 64-bit gathers,
//     and window_pair reads a window per group of eight lanes, two 16-float
//     loads and one two-source permute each.  VecD and the batch lanes are
//     the AVX2 backend's;
//   * AVX2 (8 float, 4 double lanes) — __AVX2__ without AVX-512F (e.g.
//     -march=x86-64-v3): gather_pair is two 32-bit gathers, no windows;
//   * NEON (4 float, 2 double lanes) — aarch64 (__ARM_NEON);
//   * scalar fallback (8 float, 4 double lanes) — plain arrays, used when
//     the XCT_SIMD CMake option is OFF or no vector ISA is available.  The
//     loops are trivially auto-vectorisable, and — more importantly — the
//     fallback keeps the *same* rounding behaviour contract, so tests and
//     sanitizer legs exercise the identical control flow.
//
// Semantics contract (what the backends must agree on):
//   * all lane operations are IEEE single (VecF) or double (VecD)
//     precision, one rounding per op, so a lane computes what the same
//     scalar op computes, bit for bit (fmadd fuses exactly when the target
//     has FMA, here and in its scalar overload, so code written with it
//     rounds alike at any width; the back-projection kernel is still
//     ULP-bounded, not bitwise, against the scalar Listing-1 loop — see
//     test_simd).  A caller that must not fuse anything else compiles
//     with -ffp-contract=off: GCC would contract an intrinsic multiply
//     into a following add like any other;
//   * blend(m, a, b) selects a where m is true, b elsewhere;
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

#if defined(XCT_SIMD_ENABLED) && defined(__AVX512F__)
#define XCT_SIMD_BACKEND_AVX512 1
#include <immintrin.h>
#elif defined(XCT_SIMD_ENABLED) && defined(__AVX2__)
#define XCT_SIMD_BACKEND_AVX2 1
#include <immintrin.h>
#elif defined(XCT_SIMD_ENABLED) && defined(__ARM_NEON)
#define XCT_SIMD_BACKEND_NEON 1
#include <arm_neon.h>
#else
#define XCT_SIMD_BACKEND_SCALAR 1
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

#if defined(XCT_SIMD_BACKEND_AVX512) || defined(XCT_SIMD_BACKEND_AVX2)

/// Eight float lanes in a ymm register: the AVX2 backend's VecF, and the
/// batch lanes of both x86 backends.
namespace ymm {

inline constexpr int kLanes = 8;

struct VecF {
    __m256 v;
};

inline VecF splat(float x) { return {_mm256_set1_ps(x)}; }
inline VecF load(const float* p) { return {_mm256_loadu_ps(p)}; }
inline void store(float* p, VecF a) { _mm256_storeu_ps(p, a.v); }

inline VecF operator+(VecF a, VecF b) { return {_mm256_add_ps(a.v, b.v)}; }
inline VecF operator-(VecF a, VecF b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline VecF operator*(VecF a, VecF b) { return {_mm256_mul_ps(a.v, b.v)}; }
inline VecF operator/(VecF a, VecF b) { return {_mm256_div_ps(a.v, b.v)}; }
/// Flips the sign bit, so -(+0) is -0 and a NaN keeps its payload.
inline VecF operator-(VecF a) { return {_mm256_xor_ps(a.v, _mm256_set1_ps(-0.0f))}; }

/// a*b + c (fused when the target has FMA; one extra rounding otherwise).
inline VecF fmadd(VecF a, VecF b, VecF c)
{
#if defined(__FMA__)
    return {_mm256_fmadd_ps(a.v, b.v, c.v)};
#else
    return {_mm256_add_ps(_mm256_mul_ps(a.v, b.v), c.v)};
#endif
}

}  // namespace ymm

/// Lanes for fixed batches of eight floats (the FFT's kBatch, sized for
/// L1): one ymm on both x86 backends.
namespace batch = ymm;

inline constexpr int kLanesD = 4;

struct VecD {
    __m256d v;
};
struct MaskD {
    __m256d m;
};

inline VecD splat_d(double x) { return {_mm256_set1_pd(x)}; }
inline VecD load(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void store(double* p, VecD a) { _mm256_storeu_pd(p, a.v); }

inline VecD operator+(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
inline VecD operator-(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline VecD operator-(VecD a) { return {_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0))}; }
inline VecD operator*(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline VecD operator/(VecD a, VecD b) { return {_mm256_div_pd(a.v, b.v)}; }
inline VecD fmadd(VecD a, VecD b, VecD c)
{
#if defined(__FMA__)
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
#else
    return {_mm256_add_pd(_mm256_mul_pd(a.v, b.v), c.v)};
#endif
}
inline VecD sqrt_(VecD a) { return {_mm256_sqrt_pd(a.v)}; }

inline MaskD cmp_gt(VecD a, VecD b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)}; }
inline MaskD operator&(MaskD a, MaskD b) { return {_mm256_and_pd(a.m, b.m)}; }
inline bool none(MaskD m) { return _mm256_movemask_pd(m.m) == 0; }
inline VecD blend(MaskD m, VecD a, VecD b) { return {_mm256_blendv_pd(b.v, a.v, m.m)}; }

#endif

#if defined(XCT_SIMD_BACKEND_AVX512)

// Where the plain intrinsic passes an undefined vector through its write
// mask, the all-lanes masked form stands in: the same instruction, without
// the pass-through GCC 12 warns about (-Wmaybe-uninitialized).

inline constexpr int kLanes = 16;
inline constexpr const char* backend_name() { return "avx512"; }

struct VecF {
    __m512 v;
};
struct VecI {
    __m512i v;
};
struct Mask {
    __mmask16 m;
};

inline VecF splat(float x) { return {_mm512_set1_ps(x)}; }
inline VecF iota()
{
    return {_mm512_setr_ps(0.0f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f, 9.0f, 10.0f,
                           11.0f, 12.0f, 13.0f, 14.0f, 15.0f)};
}
inline VecF load(const float* p) { return {_mm512_loadu_ps(p)}; }
inline void store(float* p, VecF a) { _mm512_storeu_ps(p, a.v); }

inline VecF operator+(VecF a, VecF b) { return {_mm512_add_ps(a.v, b.v)}; }
inline VecF operator-(VecF a, VecF b) { return {_mm512_sub_ps(a.v, b.v)}; }
inline VecF operator*(VecF a, VecF b) { return {_mm512_mul_ps(a.v, b.v)}; }
inline VecF operator/(VecF a, VecF b) { return {_mm512_div_ps(a.v, b.v)}; }
/// Flips the sign bit, so -(+0) is -0 and a NaN keeps its payload.
inline VecF operator-(VecF a)
{
    return {_mm512_castsi512_ps(
        _mm512_xor_si512(_mm512_castps_si512(a.v), _mm512_set1_epi32(INT32_MIN)))};
}

/// a*b + c (fused when the target has FMA; one extra rounding otherwise).
inline VecF fmadd(VecF a, VecF b, VecF c)
{
#if defined(__FMA__)
    return {_mm512_fmadd_ps(a.v, b.v, c.v)};
#else
    return {_mm512_add_ps(_mm512_mul_ps(a.v, b.v), c.v)};
#endif
}

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
    const auto fmadd_pd = [](__m512d a, __m512d b, __m512d c) {
#if defined(__FMA__)
        return _mm512_fmadd_pd(a, b, c);
#else
        return _mm512_add_pd(_mm512_mul_pd(a, b), c);
#endif
    };
    const auto half = [&](__m256i ih, __m256i kh, __m256i zh) {
        const __m512i at = _mm512_maskz_cvtepi32_epi64(0xFF, ih);
        const __m512d r =
            fmadd_pd(_mm512_maskz_cvtps_pd(0xFF, _mm256_castsi256_ps(zh)),
                     _mm512_permutex2var_pd(invc_lo, at, invc_hi), _mm512_set1_pd(-1.0));
        const __m512d y0 = fmadd_pd(_mm512_maskz_cvtepi32_pd(0xFF, kh), _mm512_set1_pd(d::kLn2),
                                    _mm512_permutex2var_pd(logc_lo, at, logc_hi));
        const __m512d r2 = _mm512_mul_pd(r, r);
        __m512d y = fmadd_pd(_mm512_set1_pd(d::kA1), r, _mm512_set1_pd(d::kA2));
        y = fmadd_pd(_mm512_set1_pd(d::kA0), r2, y);
        y = fmadd_pd(y, r2, _mm512_add_pd(y0, r));
        return _mm256_castps_pd(_mm512_maskz_cvtpd_ps(0xFF, y));
    };
    const __m256d lo = half(_mm512_maskz_extracti64x4_epi64(0xF, i, 0),
                            _mm512_maskz_extracti64x4_epi64(0xF, k, 0),
                            _mm512_maskz_extracti64x4_epi64(0xF, z, 0));
    const __m256d hi = half(_mm512_maskz_extracti64x4_epi64(0xF, i, 1),
                            _mm512_maskz_extracti64x4_epi64(0xF, k, 1),
                            _mm512_maskz_extracti64x4_epi64(0xF, z, 1));
    return {_mm512_castpd_ps(_mm512_maskz_insertf64x4(0xFF, _mm512_castpd256_pd512(lo), hi, 1))};
}

inline VecF floor_(VecF a) { return {_mm512_maskz_roundscale_ps(0xFFFF, a.v, _MM_FROUND_FLOOR)}; }
inline VecF min_(VecF a, VecF b) { return {_mm512_maskz_min_ps(0xFFFF, a.v, b.v)}; }
inline VecF max_(VecF a, VecF b) { return {_mm512_maskz_max_ps(0xFFFF, a.v, b.v)}; }

inline Mask cmp_gt(VecF a, VecF b) { return {_mm512_cmp_ps_mask(a.v, b.v, _CMP_GT_OQ)}; }
inline Mask cmp_ge(VecF a, VecF b) { return {_mm512_cmp_ps_mask(a.v, b.v, _CMP_GE_OQ)}; }
inline Mask cmp_le(VecF a, VecF b) { return {_mm512_cmp_ps_mask(a.v, b.v, _CMP_LE_OQ)}; }
inline Mask operator&(Mask a, Mask b) { return {_mm512_kand(a.m, b.m)}; }
inline bool none(Mask m) { return m.m == 0; }
inline VecF blend(Mask m, VecF a, VecF b) { return {_mm512_mask_blend_ps(m.m, b.v, a.v)}; }

inline bool all(Mask m) { return m.m == 0xFFFF; }
template <int L>
    requires(L >= 0 && L < kLanes)
inline float lane(VecF a)
{
    if constexpr (L == 0) return _mm512_cvtss_f32(a.v);
    const __m128 quarter = _mm512_maskz_extractf32x4_ps(0xF, a.v, L / 4);
    return _mm_cvtss_f32(_mm_permute_ps(quarter, L % 4));
}

/// Truncating float->int32 conversion (callers floor first).
inline VecI to_int(VecF a) { return {_mm512_maskz_cvttps_epi32(0xFFFF, a.v)}; }
inline VecI splat_i(std::int32_t x) { return {_mm512_set1_epi32(x)}; }
inline VecI operator+(VecI a, VecI b) { return {_mm512_add_epi32(a.v, b.v)}; }
inline VecI load_i(const std::int32_t* p) { return {_mm512_loadu_si512(p)}; }
inline void store_i(std::int32_t* p, VecI a) { _mm512_storeu_si512(p, a.v); }

/// {base[idx], base[idx + 1]} per lane, for T = float or std::int32_t.
template <typename T>
    requires std::is_same_v<T, float> || std::is_same_v<T, std::int32_t>
inline auto gather_pair(const T* base, VecI idx)
{
    // One unaligned 64-bit element per lane, eight lanes per gather; its
    // low half is base[idx] (x86 is little-endian), and two two-source
    // permutes collect the low and the high halves of both gathers.
    const __m512i q0 = _mm512_mask_i32gather_epi64(
        _mm512_setzero_si512(), 0xFF, _mm512_maskz_extracti64x4_epi64(0xF, idx.v, 0), base, 4);
    const __m512i q1 = _mm512_mask_i32gather_epi64(
        _mm512_setzero_si512(), 0xFF, _mm512_maskz_extracti64x4_epi64(0xF, idx.v, 1), base, 4);
    const __m512i even =
        _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
    const __m512i odd =
        _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31);
    const __m512i lo = _mm512_permutex2var_epi32(q0, even, q1);
    const __m512i hi = _mm512_permutex2var_epi32(q0, odd, q1);
    if constexpr (std::is_same_v<T, float>)
        return std::pair{VecF{_mm512_castsi512_ps(lo)}, VecF{_mm512_castsi512_ps(hi)}};
    else
        return std::pair{VecI{lo}, VecI{hi}};
}

/// Lanes per window group (window_pair reads one window per group), and
/// groups per vector.
inline constexpr int kGroup = 8;
inline constexpr int kGroups = kLanes / kGroup;
inline constexpr bool kWindowLoads = true;

/// Per window group, the lower of its first and last lane, in each of its
/// lanes; and lane 0 of every group.
inline VecF group_lo(VecF a)
{
    const __m512i first = _mm512_setr_epi32(0, 0, 0, 0, 0, 0, 0, 0, 8, 8, 8, 8, 8, 8, 8, 8);
    const __m512i last = _mm512_setr_epi32(7, 7, 7, 7, 7, 7, 7, 7, 15, 15, 15, 15, 15, 15, 15, 15);
    return min_(VecF{_mm512_maskz_permutexvar_ps(0xFFFF, first, a.v)},
                VecF{_mm512_maskz_permutexvar_ps(0xFFFF, last, a.v)});
}
inline std::array<float, kGroups> group_heads(VecF a) { return {lane<0>(a), lane<8>(a)}; }

/// {w[g][idx], w[g][idx + 1]} in the lanes of group g.  Per group, its
/// window's two 16-float loads feed one two-source permute whose low eight
/// lanes pick w[g][idx] and high eight w[g][idx + 1] of the group's lanes;
/// two 128-bit shuffles then put each group's picks back in its lanes.
inline std::pair<VecF, VecF> window_pair(const std::array<const float*, kGroups>& w,
                                         VecI idx)
{
    const __m512i next = _mm512_add_epi32(idx.v, _mm512_set1_epi32(1));
    const __m512i pick0 = _mm512_maskz_shuffle_i32x4(0xFFFF, idx.v, next, 0x44);
    const __m512i pick1 = _mm512_maskz_shuffle_i32x4(0xFFFF, idx.v, next, 0xEE);
    const __m512 p0 =
        _mm512_permutex2var_ps(_mm512_loadu_ps(w[0]), pick0, _mm512_loadu_ps(w[0] + 16));
    const __m512 p1 =
        _mm512_permutex2var_ps(_mm512_loadu_ps(w[1]), pick1, _mm512_loadu_ps(w[1] + 16));
    return {VecF{_mm512_maskz_shuffle_f32x4(0xFFFF, p0, p1, 0x44)},
            VecF{_mm512_maskz_shuffle_f32x4(0xFFFF, p0, p1, 0xEE)}};
}

#elif defined(XCT_SIMD_BACKEND_AVX2)

using ymm::fmadd;
using ymm::kLanes;
using ymm::load;
using ymm::splat;
using ymm::store;
using ymm::VecF;
inline constexpr const char* backend_name() { return "avx2"; }

struct VecI {
    __m256i v;
};
struct Mask {
    __m256 m;
};

inline VecF iota()
{
    return {_mm256_setr_ps(0.0f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f)};
}

inline VecF floor_(VecF a) { return {_mm256_floor_ps(a.v)}; }
inline VecF min_(VecF a, VecF b) { return {_mm256_min_ps(a.v, b.v)}; }
inline VecF max_(VecF a, VecF b) { return {_mm256_max_ps(a.v, b.v)}; }

inline Mask cmp_gt(VecF a, VecF b) { return {_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)}; }
inline Mask cmp_ge(VecF a, VecF b) { return {_mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ)}; }
inline Mask cmp_le(VecF a, VecF b) { return {_mm256_cmp_ps(a.v, b.v, _CMP_LE_OQ)}; }
inline Mask operator&(Mask a, Mask b) { return {_mm256_and_ps(a.m, b.m)}; }
inline bool none(Mask m) { return _mm256_movemask_ps(m.m) == 0; }
inline VecF blend(Mask m, VecF a, VecF b) { return {_mm256_blendv_ps(b.v, a.v, m.m)}; }

inline bool all(Mask m) { return _mm256_movemask_ps(m.m) == 0xFF; }
template <int L>
    requires(L >= 0 && L < kLanes)
inline float lane(VecF a)
{
    const __m128 half = L < 4 ? _mm256_castps256_ps128(a.v) : _mm256_extractf128_ps(a.v, 1);
    return _mm_cvtss_f32(_mm_permute_ps(half, L % 4));
}

/// Truncating float->int32 conversion (callers floor first).
inline VecI to_int(VecF a) { return {_mm256_cvttps_epi32(a.v)}; }
inline VecI splat_i(std::int32_t x) { return {_mm256_set1_epi32(x)}; }
inline VecI operator+(VecI a, VecI b) { return {_mm256_add_epi32(a.v, b.v)}; }
inline VecI load_i(const std::int32_t* p)
{
    return {_mm256_setr_epi32(p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7])};
}
inline void store_i(std::int32_t* p, VecI a)
{
    // Bit-preserving spill through the float view (no pointer punning).
    float tmp[kLanes];
    _mm256_storeu_ps(tmp, _mm256_castsi256_ps(a.v));
    std::memcpy(p, tmp, sizeof(tmp));
}

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
    const __m256i lo = _mm256_i32gather_epi32(b, idx.v, 4);
    const __m256i hi = _mm256_i32gather_epi32(b + 1, idx.v, 4);
    if constexpr (std::is_same_v<T, float>)
        return std::pair{VecF{_mm256_castsi256_ps(lo)}, VecF{_mm256_castsi256_ps(hi)}};
    else
        return std::pair{VecI{lo}, VecI{hi}};
}

#elif defined(XCT_SIMD_BACKEND_NEON)

inline constexpr int kLanes = 4;
inline constexpr const char* backend_name() { return "neon"; }

struct VecF {
    float32x4_t v;
};
struct VecI {
    int32x4_t v;
};
struct Mask {
    uint32x4_t m;
};

inline VecF splat(float x) { return {vdupq_n_f32(x)}; }
inline VecF iota()
{
    const float lanes[4] = {0.0f, 1.0f, 2.0f, 3.0f};
    return {vld1q_f32(lanes)};
}
inline VecF load(const float* p) { return {vld1q_f32(p)}; }
inline void store(float* p, VecF a) { vst1q_f32(p, a.v); }

inline VecF operator+(VecF a, VecF b) { return {vaddq_f32(a.v, b.v)}; }
inline VecF operator-(VecF a, VecF b) { return {vsubq_f32(a.v, b.v)}; }
inline VecF operator*(VecF a, VecF b) { return {vmulq_f32(a.v, b.v)}; }
inline VecF operator/(VecF a, VecF b) { return {vdivq_f32(a.v, b.v)}; }
inline VecF operator-(VecF a) { return {vnegq_f32(a.v)}; }

inline VecF fmadd(VecF a, VecF b, VecF c) { return {vfmaq_f32(c.v, a.v, b.v)}; }

inline VecF floor_(VecF a) { return {vrndmq_f32(a.v)}; }
inline VecF min_(VecF a, VecF b) { return {vminq_f32(a.v, b.v)}; }
inline VecF max_(VecF a, VecF b) { return {vmaxq_f32(a.v, b.v)}; }

inline Mask cmp_gt(VecF a, VecF b) { return {vcgtq_f32(a.v, b.v)}; }
inline Mask cmp_ge(VecF a, VecF b) { return {vcgeq_f32(a.v, b.v)}; }
inline Mask cmp_le(VecF a, VecF b) { return {vcleq_f32(a.v, b.v)}; }
inline Mask operator&(Mask a, Mask b) { return {vandq_u32(a.m, b.m)}; }
inline bool none(Mask m) { return vmaxvq_u32(m.m) == 0; }
inline VecF blend(Mask m, VecF a, VecF b) { return {vbslq_f32(m.m, a.v, b.v)}; }
inline bool all(Mask m) { return vminvq_u32(m.m) != 0; }
template <int L>
    requires(L >= 0 && L < kLanes)
inline float lane(VecF a) { return vgetq_lane_f32(a.v, L); }

inline VecI to_int(VecF a) { return {vcvtq_s32_f32(a.v)}; }
inline VecI splat_i(std::int32_t x) { return {vdupq_n_s32(x)}; }
inline VecI operator+(VecI a, VecI b) { return {vaddq_s32(a.v, b.v)}; }
inline VecI load_i(const std::int32_t* p) { return {vld1q_s32(p)}; }
inline void store_i(std::int32_t* p, VecI a) { vst1q_s32(p, a.v); }

inline constexpr int kLanesD = 2;

struct VecD {
    float64x2_t v;
};
struct MaskD {
    uint64x2_t m;
};

inline VecD splat_d(double x) { return {vdupq_n_f64(x)}; }
inline VecD load(const double* p) { return {vld1q_f64(p)}; }
inline void store(double* p, VecD a) { vst1q_f64(p, a.v); }

inline VecD operator+(VecD a, VecD b) { return {vaddq_f64(a.v, b.v)}; }
inline VecD operator-(VecD a, VecD b) { return {vsubq_f64(a.v, b.v)}; }
inline VecD operator-(VecD a) { return {vnegq_f64(a.v)}; }
inline VecD operator*(VecD a, VecD b) { return {vmulq_f64(a.v, b.v)}; }
inline VecD operator/(VecD a, VecD b) { return {vdivq_f64(a.v, b.v)}; }
inline VecD fmadd(VecD a, VecD b, VecD c) { return {vfmaq_f64(c.v, a.v, b.v)}; }
inline VecD sqrt_(VecD a) { return {vsqrtq_f64(a.v)}; }

inline MaskD cmp_gt(VecD a, VecD b) { return {vcgtq_f64(a.v, b.v)}; }
inline MaskD operator&(MaskD a, MaskD b) { return {vandq_u64(a.m, b.m)}; }
inline bool none(MaskD m) { return vmaxvq_u32(vreinterpretq_u32_u64(m.m)) == 0; }
inline VecD blend(MaskD m, VecD a, VecD b) { return {vbslq_f64(m.m, a.v, b.v)}; }

#else  // scalar fallback

inline constexpr int kLanes = 8;
inline constexpr const char* backend_name() { return "scalar"; }

struct VecF {
    float v[kLanes];
};
struct VecI {
    std::int32_t v[kLanes];
};
struct Mask {
    bool m[kLanes];
};

inline VecF splat(float x)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = x;
    return r;
}
inline VecF iota()
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = static_cast<float>(l);
    return r;
}
inline VecF load(const float* p)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = p[l];
    return r;
}
inline void store(float* p, VecF a)
{
    for (int l = 0; l < kLanes; ++l) p[l] = a.v[l];
}

inline VecF operator+(VecF a, VecF b)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
}
inline VecF operator-(VecF a, VecF b)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
}
inline VecF operator*(VecF a, VecF b)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
}
inline VecF operator/(VecF a, VecF b)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] / b.v[l];
    return r;
}
inline VecF operator-(VecF a)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = -a.v[l];
    return r;
}

inline VecF fmadd(VecF a, VecF b, VecF c)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = fmadd(a.v[l], b.v[l], c.v[l]);
    return r;
}

inline VecF floor_(VecF a)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = std::floor(a.v[l]);
    return r;
}
inline VecF min_(VecF a, VecF b)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] < b.v[l] ? a.v[l] : b.v[l];
    return r;
}
inline VecF max_(VecF a, VecF b)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] > b.v[l] ? a.v[l] : b.v[l];
    return r;
}

inline Mask cmp_gt(VecF a, VecF b)
{
    Mask r;
    for (int l = 0; l < kLanes; ++l) r.m[l] = a.v[l] > b.v[l];
    return r;
}
inline Mask cmp_ge(VecF a, VecF b)
{
    Mask r;
    for (int l = 0; l < kLanes; ++l) r.m[l] = a.v[l] >= b.v[l];
    return r;
}
inline Mask cmp_le(VecF a, VecF b)
{
    Mask r;
    for (int l = 0; l < kLanes; ++l) r.m[l] = a.v[l] <= b.v[l];
    return r;
}
inline Mask operator&(Mask a, Mask b)
{
    Mask r;
    for (int l = 0; l < kLanes; ++l) r.m[l] = a.m[l] && b.m[l];
    return r;
}
inline bool none(Mask m)
{
    for (int l = 0; l < kLanes; ++l)
        if (m.m[l]) return false;
    return true;
}
inline VecF blend(Mask m, VecF a, VecF b)
{
    VecF r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = m.m[l] ? a.v[l] : b.v[l];
    return r;
}
inline bool all(Mask m)
{
    for (int l = 0; l < kLanes; ++l)
        if (!m.m[l]) return false;
    return true;
}
template <int L>
    requires(L >= 0 && L < kLanes)
inline float lane(VecF a) { return a.v[L]; }

inline VecI to_int(VecF a)
{
    VecI r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = static_cast<std::int32_t>(a.v[l]);
    return r;
}
inline VecI splat_i(std::int32_t x)
{
    VecI r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = x;
    return r;
}
inline VecI operator+(VecI a, VecI b)
{
    VecI r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
}
inline VecI load_i(const std::int32_t* p)
{
    VecI r;
    for (int l = 0; l < kLanes; ++l) r.v[l] = p[l];
    return r;
}
inline void store_i(std::int32_t* p, VecI a)
{
    for (int l = 0; l < kLanes; ++l) p[l] = a.v[l];
}

inline constexpr int kLanesD = 4;

struct VecD {
    double v[kLanesD];
};
struct MaskD {
    bool m[kLanesD];
};

inline VecD splat_d(double x)
{
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = x;
    return r;
}
inline VecD load(const double* p)
{
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = p[l];
    return r;
}
inline void store(double* p, VecD a)
{
    for (int l = 0; l < kLanesD; ++l) p[l] = a.v[l];
}

inline VecD operator+(VecD a, VecD b)
{
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
}
inline VecD operator-(VecD a, VecD b)
{
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
}
inline VecD operator-(VecD a)
{
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = -a.v[l];
    return r;
}
inline VecD operator*(VecD a, VecD b)
{
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
}
inline VecD operator/(VecD a, VecD b)
{
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = a.v[l] / b.v[l];
    return r;
}
inline VecD fmadd(VecD a, VecD b, VecD c)
{
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = fmadd(a.v[l], b.v[l], c.v[l]);
    return r;
}
inline VecD sqrt_(VecD a)
{
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = std::sqrt(a.v[l]);
    return r;
}

inline MaskD cmp_gt(VecD a, VecD b)
{
    MaskD r;
    for (int l = 0; l < kLanesD; ++l) r.m[l] = a.v[l] > b.v[l];
    return r;
}
inline MaskD operator&(MaskD a, MaskD b)
{
    MaskD r;
    for (int l = 0; l < kLanesD; ++l) r.m[l] = a.m[l] && b.m[l];
    return r;
}
inline bool none(MaskD m)
{
    for (int l = 0; l < kLanesD; ++l)
        if (m.m[l]) return false;
    return true;
}
inline VecD blend(MaskD m, VecD a, VecD b)
{
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = m.m[l] ? a.v[l] : b.v[l];
    return r;
}

#endif

#if defined(XCT_SIMD_BACKEND_NEON) || defined(XCT_SIMD_BACKEND_SCALAR)
/// {base[idx], base[idx + 1]} per lane, for T = float or std::int32_t, by
/// plain indexing (so sanitizers see every read).
template <typename T>
    requires std::is_same_v<T, float> || std::is_same_v<T, std::int32_t>
inline auto gather_pair(const T* base, VecI idx)
{
    std::int32_t ix[kLanes];
    store_i(ix, idx);
    T lo[kLanes], hi[kLanes];
    for (int l = 0; l < kLanes; ++l) {
        lo[l] = base[ix[l]];
        hi[l] = base[ix[l] + 1];
    }
    if constexpr (std::is_same_v<T, float>)
        return std::pair{load(lo), load(hi)};
    else
        return std::pair{load_i(lo), load_i(hi)};
}

/// The batch lanes are the backend's own: kBatch is a whole number of them.
namespace batch {
using simd::fmadd;
using simd::kLanes;
using simd::load;
using simd::splat;
using simd::store;
using simd::VecF;
}  // namespace batch
#endif

#if !defined(XCT_SIMD_BACKEND_AVX512)
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

/// Clamp every lane to [lo, hi].
inline VecF clamp(VecF a, VecF lo, VecF hi) { return min_(max_(a, lo), hi); }

/// log_ on every lane, bit for bit: the backend's table lanes when every
/// lane holds a positive normal, else (and on NEON and the scalar backend
/// always) the scalar form lane by lane.
inline VecF log_(VecF x)
{
#if defined(XCT_SIMD_BACKEND_AVX512) || defined(XCT_SIMD_BACKEND_AVX2)
    if (all(cmp_ge(x, splat(std::numeric_limits<float>::min())) &
            cmp_gt(splat(std::numeric_limits<float>::infinity()), x)))
        return log_lanes(x);
#endif
    float v[kLanes];
    store(v, x);
    for (float& f : v) f = log_(f);
    return load(v);
}

}  // namespace xct::simd
