#include "backproj/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/check.hpp"
#include "core/parallel.hpp"
#include "core/scratch.hpp"
#include "core/simd.hpp"

namespace xct::backproj {

MatrixPack::MatrixPack(std::span<const Mat34> mats)
    : fm_(mats.size()), dm_(mats.begin(), mats.end())
{
    for (std::size_t s = 0; s < mats.size(); ++s) {
        const Mat34& m = mats[s];
        z_invariant_ = z_invariant_ && m[0].z == 0.0 && m[2].z == 0.0;
        fm_[s] = {static_cast<float>(m[0].x), static_cast<float>(m[0].y),
                  static_cast<float>(m[0].z), static_cast<float>(m[0].w),
                  static_cast<float>(m[1].x), static_cast<float>(m[1].y),
                  static_cast<float>(m[1].z), static_cast<float>(m[1].w),
                  static_cast<float>(m[2].x), static_cast<float>(m[2].y),
                  static_cast<float>(m[2].z), static_cast<float>(m[2].w)};
    }
}

namespace {

/// Listing 1 devSubPixel: manual single-precision bilinear interpolation
/// over four integer texture fetches.  `x` is the detector column, `yrel`
/// the detector row relative to the streaming origin (texture wraps it),
/// `s` the view.  Templated over the texture type so the scalar fp32 and
/// the 8-bit-quantised paths share one implementation.
template <typename Tex>
inline float dev_sub_pixel(const Tex& tex, float x, float yrel, index_t s)
{
    const float fx = std::floor(x);
    const float fy = std::floor(yrel);
    const float du = x - fx;
    const float dv = yrel - fy;
    const index_t iu = static_cast<index_t>(fx);
    const index_t iv = static_cast<index_t>(fy);
    const float v0 = tex.fetch(iu, s, iv);
    const float v1 = tex.fetch(iu + 1, s, iv);
    const float v2 = tex.fetch(iu, s, iv + 1);
    const float v3 = tex.fetch(iu + 1, s, iv + 1);
    return (v0 * (1.0f - du) + v1 * du) * (1.0f - dv) + (v2 * (1.0f - du) + v3 * du) * dv;
}

/// The original Listing-1 loop: voxel-major, full 4-term dot products per
/// (voxel, view), checked fetches.  Retained as the in-build reference for
/// the vectorised kernel and as the q8 ablation path.
template <typename Tex>
void bp_scalar_impl(const Tex& tex, const MatrixPack& pack, Volume& vol, const StreamOffsets& off,
                    index_t nu, index_t nv)
{
    require(pack.views() == tex.height(),
            "backproject_streaming: texture height must equal the view count");
    require(tex.width() == nu, "backproject_streaming: texture width must equal Nu");
    const Dim3 d = vol.size();
    const index_t views = pack.views();
    const float proj_y0 = static_cast<float>(off.proj_y);

    parallel::parallel_for(d.z * d.y, 1, [&](index_t kj, std::size_t) {
        const index_t k = kj / d.y, j = kj % d.y;
        const float kk = static_cast<float>(k + off.volume_z);  // offset K (Listing 1 line 9)
        const float jj = static_cast<float>(j);
        for (index_t i = 0; i < d.x; ++i) {
            const float ii = static_cast<float>(i);
            float sum = 0.0f;
            for (index_t s = 0; s < views; ++s) {
                const auto& m = pack.fmat(s);
                // Eq. 8 (Listing 1 lines 12-14).
                const float z = m[8] * ii + m[9] * jj + m[10] * kk + m[11];
                if (z <= 0.0f) continue;
                const float x = (m[0] * ii + m[1] * jj + m[2] * kk + m[3]) / z;
                const float y = (m[4] * ii + m[5] * jj + m[6] * kk + m[7]) / z;
                if (x < 0.0f || x > static_cast<float>(nu - 1) || y < 0.0f ||
                    y > static_cast<float>(nv - 1))
                    continue;
                const float yrel = y - proj_y0;  // offset Y (Listing 1 line 15)
                sum += 1.0f / (z * z) * dev_sub_pixel(tex, x, yrel, s);
            }
            vol.at(i, j, k) += sum;  // one volume write per voxel (line 19)
        }
    });
}

/// The vectorised column-walk kernel (the production path, DESIGN.md §3e).
///
/// Every matrix projection_matrix builds has m[0].z == m[2].z == 0, so
/// along a slab's z a voxel column keeps its detector column x, its depth
/// zn and its FDK weight; only the detector row y moves.  x/y/z are affine
/// in i, and each lane evaluates fma(i, step, row_constant) with the row
/// constants computed in double so the walk starts exact.
///
///   * rows j go to the worker pool; each pool slot has an acc[nz][nx]
///     accumulator and room for a row's y constants of every (view, k);
///   * per view and per simd::kLanes voxels of the row: zn, x, the zn > 0 /
///     column mask, the clamp and floor of x and the weight 1/zn^2, once
///     (zn is sanitised to 1 on masked lanes so no inf/NaN leaks through
///     the blend); a vector whose lanes all fail is skipped for every k;
///   * per k: y, its mask and the row fraction, then the four bilinear taps
///     as three adjacent pairs — zrow[t], zrow[t+1] (zrow[] resolves the
///     circular depth wrap of global detector row t) and texels (u, u+1)
///     of both texture rows.  A pair starts at min(floor(x), nu-2), so it
///     stays inside its row; lanes with floor(x) == nu-1 take the high
///     texel for both taps (the clamp address mode on u).
///
/// Per voxel the operations, their association and the view order of the
/// sum are those of the per-(view, row) loop this replaced, so the output
/// is bitwise identical to it (test_simd keeps that loop as its oracle).
/// Indices fit int32 by the texture-size require below.
void bp_vectorised(const sim::Texture3& tex, const MatrixPack& pack, Volume& vol,
                   const StreamOffsets& off, index_t nu, index_t nv)
{
    require(pack.views() == tex.height(),
            "backproject_streaming: texture height must equal the view count");
    require(tex.width() == nu, "backproject_streaming: texture width must equal Nu");
    require(pack.z_invariant(),
            "backproject_streaming: every view matrix must have m[0].z == m[2].z == 0 "
            "(detector parallel to the rotation axis)");
    require(nu >= 2, "backproject_streaming: the detector needs at least two columns");
    const Dim3 d = vol.size();
    const index_t views = pack.views();
    const index_t width = tex.width();
    const index_t height = tex.height();
    const index_t depth = tex.depth();
    require(depth * height * width <
                static_cast<index_t>(std::numeric_limits<std::int32_t>::max()),
            "backproject_streaming: texture too large for int32 gather indices");
    const float* texel = tex.device_span().data();
    const float x_hi = static_cast<float>(nu - 1);
    const float y_hi = static_cast<float>(nv - 1);
    constexpr index_t W = simd::kLanes;
    const index_t nx_vec = d.x - d.x % W;

    // Circular-row offset table: global detector row t -> flat offset of
    // its texture plane, zrow[t] = ((t - proj_y) mod depth)*height*width.
    // After clamping y to [0, y_hi], t = floor(y) is in [0, nv-1] and the
    // bilinear partner row t+1 is in [1, nv] — table size nv + 1.
    scratch::Buffer<std::int32_t> zrow_lease(static_cast<std::size_t>(nv + 1));
    std::int32_t* zrow = zrow_lease.data();
    for (index_t t = 0; t <= nv; ++t) {
        index_t zz = (t - off.proj_y) % depth;
        if (zz < 0) zz += depth;
        zrow[t] = static_cast<std::int32_t>(zz * height * width);
    }

    const simd::VecF viota = simd::iota();
    const simd::VecF vzero = simd::splat(0.0f);
    const simd::VecF vone = simd::splat(1.0f);
    const simd::VecF vxhi = simd::splat(x_hi);
    const simd::VecF vyhi = simd::splat(y_hi);
    const simd::VecF vpair_hi = simd::splat(static_cast<float>(nu - 2));  // last pair start
    const double kk0 = static_cast<double>(off.volume_z);

    // Rows vary in cost (masked columns are skipped), so they are handed
    // out one at a time.  Each pool slot owns an acc[nz][nx] accumulator
    // and room for a row's y constants of every (view, k), all in one lease
    // on the calling thread.  The body captures the constants by value: a
    // vector store may alias any object, and through a by-reference closure
    // GCC reloads each constant via a second pointer inside the k loop
    // (~20 % of bp in a kernel micro-benchmark).
    const std::size_t per_slot = static_cast<std::size_t>(d.z * d.x + views * d.z);
    scratch::Buffer<float> lease(parallel::width() * per_slot);
    float* const slots = lease.data();
    parallel::parallel_for(d.y, 1, [=, &tex, &pack, &vol](index_t j, std::size_t slot) {
        float* const acc = slots + slot * per_slot;  // acc[k * nx + i]
        float* const yrow = acc + d.z * d.x;         // yrow[s * nz + k]
        const double jj = static_cast<double>(j);
        std::fill_n(acc, d.z * d.x, 0.0f);
        // k outermost, view innermost: no product here is loop-invariant,
        // so fma contraction rounds exactly as in the per-(view, row) loop.
        for (index_t k = 0; k < d.z; ++k) {
            const double kk = static_cast<double>(k + off.volume_z);
            for (index_t s = 0; s < views; ++s) {
                const Mat34& m = pack.dmat(s);
                yrow[s * d.z + k] = static_cast<float>(m[1].y * jj + m[1].z * kk + m[1].w);
            }
        }
        for (index_t s = 0; s < views; ++s) {
            const Mat34& m = pack.dmat(s);
            const auto& f = pack.fmat(s);
            // Zero z column: the same floats at every k of the slab.
            const float xn0 = static_cast<float>(m[0].y * jj + m[0].z * kk0 + m[0].w);
            const float zn0 = static_cast<float>(m[2].y * jj + m[2].z * kk0 + m[2].w);
            const float dxn = f[0];
            const float dyn = f[4];
            const float dzn = f[8];
            const float* yn0 = yrow + s * d.z;

            const simd::VecF vxn0 = simd::splat(xn0);
            const simd::VecF vzn0 = simd::splat(zn0);
            const simd::VecF vdxn = simd::splat(dxn);
            const simd::VecF vdyn = simd::splat(dyn);
            const simd::VecF vdzn = simd::splat(dzn);
            const simd::VecI vsrow = simd::splat_i(static_cast<std::int32_t>(s * width));

            for (index_t i = 0; i < nx_vec; i += W) {
                const simd::VecF ii = simd::splat(static_cast<float>(i)) + viota;
                const simd::VecF zn = simd::fmadd(ii, vdzn, vzn0);
                const simd::Mask zpos = simd::cmp_gt(zn, vzero);
                const simd::VecF zn_safe = simd::blend(zpos, zn, vone);
                const simd::VecF x = simd::fmadd(ii, vdxn, vxn0) / zn_safe;
                const simd::Mask xok = zpos & simd::cmp_ge(x, vzero) & simd::cmp_le(x, vxhi);
                if (simd::none(xok)) continue;
                const simd::VecF xc = simd::clamp(x, vzero, vxhi);
                const simd::VecF fx = simd::floor_(xc);
                const simd::VecF du = xc - fx;
                const simd::VecF one_du = vone - du;
                const simd::Mask last_col = simd::cmp_gt(fx, vpair_hi);
                const simd::VecI col = simd::to_int(simd::min_(fx, vpair_hi)) + vsrow;
                const simd::VecF wgt = vone / (zn_safe * zn_safe);
                float* acc_k = acc + i;
                for (index_t k = 0; k < d.z; ++k, acc_k += d.x) {
                    const simd::VecF y = simd::fmadd(ii, vdyn, simd::splat(yn0[k])) / zn_safe;
                    const simd::Mask ok = xok & simd::cmp_ge(y, vzero) & simd::cmp_le(y, vyhi);
                    if (simd::none(ok)) continue;
                    const simd::VecF yc = simd::clamp(y, vzero, vyhi);
                    const simd::VecF fy = simd::floor_(yc);
                    const simd::VecF dv = yc - fy;
                    const auto [z0, z1] = simd::gather_pair(zrow, simd::to_int(fy));
                    const auto [r0lo, f01] = simd::gather_pair(texel, z0 + col);
                    const auto [r1lo, f11] = simd::gather_pair(texel, z1 + col);
                    const simd::VecF f00 = simd::blend(last_col, f01, r0lo);
                    const simd::VecF f10 = simd::blend(last_col, f11, r1lo);
                    const simd::VecF one_dv = vone - dv;
                    const simd::VecF bil = (f00 * one_du + f01 * du) * one_dv +
                                           (f10 * one_du + f11 * du) * dv;
                    const simd::VecF contrib = simd::blend(ok, wgt * bil, vzero);
                    simd::store(acc_k, simd::load(acc_k) + contrib);
                }
            }
            // Scalar tail (d.x % kLanes voxels), same affine walk; i is
            // innermost so fi * dyn is not hoisted away from its add.
            for (index_t k = 0; k < d.z; ++k) {
                for (index_t i = nx_vec; i < d.x; ++i) {
                    const float fi = static_cast<float>(i);
                    const float zn = fi * dzn + zn0;
                    if (zn <= 0.0f) continue;
                    const float x = (fi * dxn + xn0) / zn;
                    const float y = (fi * dyn + yn0[k]) / zn;
                    if (x < 0.0f || x > x_hi || y < 0.0f || y > y_hi) continue;
                    acc[k * d.x + i] +=
                        1.0f / (zn * zn) *
                        dev_sub_pixel(tex, x, y - static_cast<float>(off.proj_y), s);
                }
            }
        }
        for (index_t k = 0; k < d.z; ++k)
            for (index_t i = 0; i < d.x; ++i) vol.at(i, j, k) += acc[k * d.x + i];
    });
}

}  // namespace

void backproject_streaming(const sim::Texture3& tex, const MatrixPack& pack, Volume& vol,
                           const StreamOffsets& off, index_t nu, index_t nv)
{
    bp_vectorised(tex, pack, vol, off, nu, nv);
}

void backproject_streaming_scalar(const sim::Texture3& tex, const MatrixPack& pack, Volume& vol,
                                  const StreamOffsets& off, index_t nu, index_t nv)
{
    bp_scalar_impl(tex, pack, vol, off, nu, nv);
}

void backproject_streaming_q8(const sim::QuantizedTexture3& tex, const MatrixPack& pack,
                              Volume& vol, const StreamOffsets& off, index_t nu, index_t nv)
{
    bp_scalar_impl(tex, pack, vol, off, nu, nv);
}

}  // namespace xct::backproj
