#pragma once
// Portable explicit-SIMD wrapper for the hot-path kernels (DESIGN.md §3e).
//
// Exposes a fixed-width lane abstraction (VecF / VecI / Mask) with exactly
// the operations the streaming back-projection inner loop needs: splat,
// affine index arithmetic (FMA), floor, clamp, lane-wise compares feeding
// blend masks, lane reads, int conversion, and the two ways to fetch
// adjacent pairs (both taps of a bilinear interpolation per lane): gathers
// from flat arrays, and picks out of a kWindow-float window.  A second,
// double-precision lane type (VecD / MaskD, kLanesD lanes) carries what
// the analytic phantom projector needs: splat_d, load/store, + - * / and
// negation, fmadd, sqrt_, cmp_gt, mask &, blend and none.
// Three backends, chosen at compile time:
//
//   * AVX2 (8 float, 4 double lanes) — x86-64, selected when the compiler
//     sets __AVX2__ (e.g. -march=native on any post-2013 core); when the
//     target also has AVX-512F, gather_pair uses one 8 x 64-bit gather and
//     window_pair two 16-float loads and one two-source permute;
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
//   * window_pair(w, idx) returns what gather_pair(w, idx) returns, for
//     every idx[lane] in [0, kWindow - 2], and may read all of
//     w[0, kWindow); kWindowLoads says whether it is loads and a register
//     permute (true) or the gather itself (false), so a caller can keep
//     the window test off targets where it cannot pay.

#include <concepts>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include <cmath>

#if defined(XCT_SIMD_ENABLED) && defined(__AVX2__)
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

#if defined(XCT_SIMD_BACKEND_AVX2)

inline constexpr int kLanes = 8;
inline constexpr const char* backend_name() { return "avx2"; }

struct VecF {
    __m256 v;
};
struct VecI {
    __m256i v;
};
struct Mask {
    __m256 m;
};

inline VecF splat(float x) { return {_mm256_set1_ps(x)}; }
inline VecF iota()
{
    return {_mm256_setr_ps(0.0f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f)};
}
inline VecF load(const float* p) { return {_mm256_loadu_ps(p)}; }
inline void store(float* p, VecF a) { _mm256_storeu_ps(p, a.v); }

inline VecF operator+(VecF a, VecF b) { return {_mm256_add_ps(a.v, b.v)}; }
inline VecF operator-(VecF a, VecF b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline VecF operator*(VecF a, VecF b) { return {_mm256_mul_ps(a.v, b.v)}; }
inline VecF operator/(VecF a, VecF b) { return {_mm256_div_ps(a.v, b.v)}; }

/// a*b + c (fused when the target has FMA; one extra rounding otherwise).
inline VecF fmadd(VecF a, VecF b, VecF c)
{
#if defined(__FMA__)
    return {_mm256_fmadd_ps(a.v, b.v, c.v)};
#else
    return {_mm256_add_ps(_mm256_mul_ps(a.v, b.v), c.v)};
#endif
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

/// {base[idx], base[idx + 1]} per lane, for T = float or std::int32_t.
template <typename T>
    requires std::is_same_v<T, float> || std::is_same_v<T, std::int32_t>
inline auto gather_pair(const T* base, VecI idx)
{
#if defined(__AVX512F__)
    // One unaligned 64-bit element per lane; its low half is base[idx]
    // (x86 is little-endian), and narrowing splits the halves apart.  The
    // all-lanes masked forms give the same code without the unmasked
    // intrinsics' undefined pass-through, which GCC 12 warns about.
    const __m512i q = _mm512_mask_i32gather_epi64(_mm512_setzero_si512(), 0xFF, idx.v, base, 4);
    const __m256i lo = _mm512_maskz_cvtepi64_epi32(0xFF, q);
    const __m256i hi = _mm512_maskz_cvtepi64_epi32(0xFF, _mm512_maskz_srli_epi64(0xFF, q, 32));
#else
    // Two 32-bit gathers: measured faster than two 4-lane 64-bit gathers
    // plus the permutes that split them.
    const auto* b = static_cast<const int*>(static_cast<const void*>(base));
    const __m256i lo = _mm256_i32gather_epi32(b, idx.v, 4);
    const __m256i hi = _mm256_i32gather_epi32(b + 1, idx.v, 4);
#endif
    if constexpr (std::is_same_v<T, float>)
        return std::pair{VecF{_mm256_castsi256_ps(lo)}, VecF{_mm256_castsi256_ps(hi)}};
    else
        return std::pair{VecI{lo}, VecI{hi}};
}

#if defined(__AVX512F__)
inline constexpr bool kWindowLoads = true;
/// {w[idx], w[idx + 1]} per lane: the window's two 16-float loads feed one
/// two-source permute whose low eight lanes pick w[idx] and high eight
/// w[idx + 1].  Masked all-lanes forms again, for GCC 12's warning.
inline std::pair<VecF, VecF> window_pair(const float* w, VecI idx)
{
    const __m512i low = _mm512_maskz_inserti64x4(0xFF, _mm512_setzero_si512(), idx.v, 0);
    const __m512i pick =
        _mm512_maskz_inserti64x4(0xFF, low, _mm256_add_epi32(idx.v, _mm256_set1_epi32(1)), 1);
    const __m512d both = _mm512_castps_pd(
        _mm512_permutex2var_ps(_mm512_loadu_ps(w), pick, _mm512_loadu_ps(w + 16)));
    return {VecF{_mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, both, 0))},
            VecF{_mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, both, 1))}};
}
#endif

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

#if !defined(XCT_SIMD_BACKEND_AVX2)
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
#endif

#if !defined(XCT_SIMD_BACKEND_AVX2) || !defined(__AVX512F__)
inline constexpr bool kWindowLoads = false;
/// {w[idx], w[idx + 1]} per lane, as the gather.
inline std::pair<VecF, VecF> window_pair(const float* w, VecI idx) { return gather_pair(w, idx); }
#endif

/// Floats window_pair may read from its base pointer.
inline constexpr int kWindow = 32;

/// Clamp every lane to [lo, hi].
inline VecF clamp(VecF a, VecF lo, VecF hi) { return min_(max_(a, lo), hi); }

}  // namespace xct::simd
