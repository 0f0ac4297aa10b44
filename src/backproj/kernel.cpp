#include "backproj/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>

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

/// Voxel rows j one pool task sweeps together: each view's texels are
/// fetched once per block of rows instead of once per row.  Slabs too thin
/// to give every pool participant kBlocksPerSlot blocks of kRowBlock rows
/// use shorter blocks, so a participant that starts late still finds work
/// (the block height changes no voxel's arithmetic).
constexpr index_t kRowBlock = 4;
constexpr index_t kBlocksPerSlot = 4;

/// The vectorised column-walk kernel (the production path, DESIGN.md §3e).
///
/// Every matrix projection_matrix builds has m[0].z == m[2].z == 0, so
/// along a slab's z a voxel column keeps its detector column x, its depth
/// zn and its FDK weight; only the detector row y moves.  x/y/z are affine
/// in i, and each lane evaluates fma(i, step, row_constant) with the row
/// constants computed in double so the walk starts exact.
///
///   * blocks of up to kRowBlock rows j go to the worker pool; each pool
///     slot has an acc[row][nz][nx] accumulator and room for the block's y
///     constants of every (row, view, k);
///   * per view, every row of the block in turn, and per simd::kLanes
///     voxels of the row: zn, x, the zn > 0 / column mask, the clamp and
///     floor of x, the weight 1/zn^2 and the texel window, once (zn is
///     sanitised to 1 on masked lanes so no inf/NaN leaks through the
///     blend); a vector whose lanes all fail is skipped for every k;
///   * per k: y, its mask and the row fraction, then the four bilinear
///     taps.  A tap pair (u, u+1) starts at min(floor(x), nu-2), so it
///     stays inside its row; lanes with floor(x) == nu-1 take the high
///     texel for both taps (the clamp address mode on u).  When every
///     lane's pair lies in one simd::kWindow-float window of its texture
///     row and the lanes' rows t span at most t_lo and t_lo+1, the taps are
///     picked out of that window in rows t_lo, t_lo+1 and t_lo+2
///     (simd::window_pair); otherwise they are three gathers, zrow[t],
///     zrow[t+1] (zrow[] resolves the circular depth wrap of global
///     detector row t) and the texel pairs of both texture rows.
///
/// Per voxel the operations, their association and the view order of the
/// sum are those of the per-(view, row) loop this replaced, and both tap
/// paths load the same texels, so the output is bitwise identical to it
/// (test_simd keeps that loop as its oracle).  Indices fit int32 by the
/// texture-size require below.
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
    // The window path needs a row at least one window wide, and pays only
    // where window_pair is a register permute.
    const bool windows = simd::kWindowLoads && width >= simd::kWindow;
    const float win_span = static_cast<float>(simd::kWindow - 2);  // last pair start
    const auto win_last = static_cast<std::int32_t>(width - simd::kWindow);

    // Circular-row offset table: global detector row t -> flat offset of
    // its texture plane, zrow[t] = ((t - proj_y) mod depth)*height*width.
    // After clamping y to [0, y_hi], t = floor(y) is in [0, nv-1]; the
    // bilinear partner row t+1 is in [1, nv] and the window path's third
    // row t_lo+2 in [2, nv+1] — table size nv + 2.
    scratch::Buffer<std::int32_t> zrow_lease(static_cast<std::size_t>(nv + 2));
    std::int32_t* zrow = zrow_lease.data();
    for (index_t t = 0; t <= nv + 1; ++t) {
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

    // Blocks vary in cost (masked columns are skipped), so they are handed
    // out one at a time.  Each pool slot owns acc[block][nz][nx] and the
    // block's y constants yrow[block][views][nz], all in one lease on the
    // calling thread.  The body captures the constants by value: a
    // vector store may alias any object, and through a by-reference closure
    // GCC reloads each constant via a second pointer inside the k loop
    // (~20 % of bp in a kernel micro-benchmark).
    const index_t min_blocks = kBlocksPerSlot * static_cast<index_t>(parallel::width());
    const index_t block = std::clamp<index_t>(d.y / min_blocks, 1, kRowBlock);
    const index_t plane = d.z * d.x;
    const std::size_t per_slot = static_cast<std::size_t>(block * (plane + views * d.z));
    scratch::Buffer<float> lease(parallel::width() * per_slot);
    float* const slots = lease.data();
    const index_t blocks = (d.y + block - 1) / block;
    parallel::parallel_for(blocks, 1, [=, &tex, &pack, &vol](index_t b, std::size_t slot) {
        const index_t j0 = b * block;
        const index_t rows = std::min(block, d.y - j0);
        float* const acc = slots + slot * per_slot;  // acc[(r * nz + k) * nx + i]
        float* const yrow = acc + block * plane;     // yrow[(r * views + s) * nz + k]
        std::fill_n(acc, rows * plane, 0.0f);
        // k outer, view innermost: no product here is loop-invariant, so
        // fma contraction rounds exactly as in the per-(view, row) loop.
        for (index_t r = 0; r < rows; ++r) {
            const double jj = static_cast<double>(j0 + r);
            float* const yr = yrow + r * views * d.z;
            for (index_t k = 0; k < d.z; ++k) {
                const double kk = static_cast<double>(k + off.volume_z);
                for (index_t s = 0; s < views; ++s) {
                    const Mat34& m = pack.dmat(s);
                    yr[s * d.z + k] = static_cast<float>(m[1].y * jj + m[1].z * kk + m[1].w);
                }
            }
        }
        for (index_t s = 0; s < views; ++s) {
            const Mat34& m = pack.dmat(s);
            const auto& f = pack.fmat(s);
            const float dxn = f[0];
            const float dyn = f[4];
            const float dzn = f[8];
            const simd::VecF vdxn = simd::splat(dxn);
            const simd::VecF vdyn = simd::splat(dyn);
            const simd::VecF vdzn = simd::splat(dzn);
            const simd::VecI vsrow = simd::splat_i(static_cast<std::int32_t>(s * width));
            const float* const srow = texel + s * width;

            for (index_t r = 0; r < rows; ++r) {
                const double jj = static_cast<double>(j0 + r);
                // Zero z column: the same floats at every k of the slab.
                const float xn0 = static_cast<float>(m[0].y * jj + m[0].z * kk0 + m[0].w);
                const float zn0 = static_cast<float>(m[2].y * jj + m[2].z * kk0 + m[2].w);
                const float* yn0 = yrow + (r * views + s) * d.z;
                float* const acc_r = acc + r * plane;
                const simd::VecF vxn0 = simd::splat(xn0);
                const simd::VecF vzn0 = simd::splat(zn0);

                for (index_t i = 0; i < nx_vec; i += W) {
                    const simd::VecF ii = simd::splat(static_cast<float>(i)) + viota;
                    const simd::VecF zn = simd::fmadd(ii, vdzn, vzn0);
                    const simd::Mask zpos = simd::cmp_gt(zn, vzero);
                    const simd::VecF zn_safe = simd::blend(zpos, zn, vone);
                    const simd::VecF x = simd::fmadd(ii, vdxn, vxn0) / zn_safe;
                    const simd::Mask xok =
                        zpos & simd::cmp_ge(x, vzero) & simd::cmp_le(x, vxhi);
                    if (simd::none(xok)) continue;
                    const simd::VecF xc = simd::clamp(x, vzero, vxhi);
                    const simd::VecF fx = simd::floor_(xc);
                    const simd::VecF du = xc - fx;
                    const simd::VecF one_du = vone - du;
                    const simd::Mask last_col = simd::cmp_gt(fx, vpair_hi);
                    const simd::VecF pair = simd::min_(fx, vpair_hi);
                    const simd::VecI col = simd::to_int(pair) + vsrow;
                    const simd::VecF wgt = vone / (zn_safe * zn_safe);
                    // The window [w0, w0 + kWindow) of every texture row:
                    // it holds each lane's pair and ends inside the row.
                    // x is monotonic in i up to rounding, so the end lanes
                    // bracket the pairs; the compare checks every lane.
                    const float cmin = std::min(simd::lane<0>(pair), simd::lane<W - 1>(pair));
                    const bool in_window =
                        windows && simd::all(simd::cmp_ge(pair, simd::splat(cmin)) &
                                             simd::cmp_le(pair, simd::splat(cmin + win_span)));
                    const std::int32_t w0 =
                        in_window ? std::min(static_cast<std::int32_t>(cmin), win_last) : 0;
                    const simd::VecI wcol = simd::to_int(pair) + simd::splat_i(-w0);
                    const float* const wrow = srow + w0;
                    float* acc_k = acc_r + i;
                    for (index_t k = 0; k < d.z; ++k, acc_k += d.x) {
                        const simd::VecF y =
                            simd::fmadd(ii, vdyn, simd::splat(yn0[k])) / zn_safe;
                        const simd::Mask ok =
                            xok & simd::cmp_ge(y, vzero) & simd::cmp_le(y, vyhi);
                        if (simd::none(ok)) continue;
                        const simd::VecF yc = simd::clamp(y, vzero, vyhi);
                        const simd::VecF fy = simd::floor_(yc);
                        const simd::VecF dv = yc - fy;
                        // Rows t_lo and t_lo + 1 hold every lane's upper
                        // tap, with t_lo from the end lanes as for x.
                        simd::VecF r0lo{}, f01{}, r1lo{}, f11{};
                        const float tlo = std::min(simd::lane<0>(fy), simd::lane<W - 1>(fy));
                        const simd::VecF vtlo = simd::splat(tlo);
                        if (in_window && simd::all(simd::cmp_ge(fy, vtlo) &
                                                   simd::cmp_le(fy, vtlo + vone))) {
                            const auto t = static_cast<std::int32_t>(tlo);
                            const auto [a0, a1] = simd::window_pair(wrow + zrow[t], wcol);
                            const auto [b0, b1] = simd::window_pair(wrow + zrow[t + 1], wcol);
                            const auto [c0, c1] = simd::window_pair(wrow + zrow[t + 2], wcol);
                            const simd::Mask second = simd::cmp_gt(fy, vtlo);
                            r0lo = simd::blend(second, b0, a0);
                            f01 = simd::blend(second, b1, a1);
                            r1lo = simd::blend(second, c0, b0);
                            f11 = simd::blend(second, c1, b1);
                        } else {
                            const auto [z0, z1] = simd::gather_pair(zrow, simd::to_int(fy));
                            std::tie(r0lo, f01) = simd::gather_pair(texel, z0 + col);
                            std::tie(r1lo, f11) = simd::gather_pair(texel, z1 + col);
                        }
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
                        acc_r[k * d.x + i] +=
                            1.0f / (zn * zn) *
                            dev_sub_pixel(tex, x, y - static_cast<float>(off.proj_y), s);
                    }
                }
            }
        }
        for (index_t r = 0; r < rows; ++r)
            for (index_t k = 0; k < d.z; ++k)
                for (index_t i = 0; i < d.x; ++i)
                    vol.at(i, j0 + r, k) += acc[(r * d.z + k) * d.x + i];
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
