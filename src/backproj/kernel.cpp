#include "backproj/kernel.hpp"

#include <algorithm>
#include <array>
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
/// the 8-bit-quantised paths share one implementation.  Here and in
/// bp_scalar_impl the fmadds are the products GCC 12 contracted before this
/// file compiled with -ffp-contract=off, so FMA targets keep their bits.
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
    const float row0 = simd::fmadd(v0, 1.0f - du, v1 * du);
    const float row1 = simd::fmadd(v2, 1.0f - du, v3 * du);
    return simd::fmadd(row0, 1.0f - dv, row1 * dv);
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
                const float z = simd::fmadd(m[10], kk, simd::fmadd(m[8], ii, m[9] * jj)) + m[11];
                if (z <= 0.0f) continue;
                const float x =
                    (simd::fmadd(m[2], kk, simd::fmadd(m[0], ii, m[1] * jj)) + m[3]) / z;
                const float y =
                    (simd::fmadd(m[6], kk, simd::fmadd(m[5], jj, m[4] * ii)) + m[7]) / z;
                if (x < 0.0f || x > static_cast<float>(nu - 1) || y < 0.0f ||
                    y > static_cast<float>(nv - 1))
                    continue;
                const float yrel = y - proj_y0;  // offset Y (Listing 1 line 15)
                sum = simd::fmadd(1.0f / (z * z), dev_sub_pixel(tex, x, yrel, s), sum);
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

constexpr std::size_t kGroups = simd::kGroups;

/// The vectorised column-walk kernel (the production path, DESIGN.md §3e).
///
/// Every matrix projection_matrix builds has m[0].z == m[2].z == 0, so
/// along a slab's z a voxel column keeps its detector column x, its depth
/// zn and its FDK weight; only the detector row y moves.  x/y/z are affine
/// in i, and each lane evaluates fma(i, step, row_constant) with the row
/// constants computed in double so the walk starts exact.
///
///   * blocks of up to kRowBlock rows j go to the worker pool; each pool
///     slot has an acc[row][nz][nx_pad] accumulator, its rows padded to
///     whole vectors, and room for the block's y constants of every
///     (row, view, k);
///   * per view, every row of the block in turn, and per simd::kLanes
///     voxels of the row: zn, x, the zn > 0 / column mask, the clamp and
///     floor of x, the weight 1/zn^2 and the texel windows, once (zn is
///     sanitised to 1 on masked lanes so no inf/NaN leaks through the
///     blend); a vector whose lanes all fail is skipped for every k.  The
///     last vector of a row runs past nx into the padding, so every voxel
///     takes the same lane arithmetic at any width;
///   * per k: y, its mask and the row fraction, then the four bilinear
///     taps.  A tap pair (u, u+1) starts at min(floor(x), nu-2), so it
///     stays inside its row; lanes with floor(x) == nu-1 take the high
///     texel for both taps (the clamp address mode on u).  When, in every
///     window group of simd::kGroup lanes, each lane's pair lies in one
///     simd::kWindow-float window of its texture row and the lanes' rows t
///     span at most the group's t_lo and t_lo+1, the taps are picked out of
///     the groups' windows in rows t_lo, t_lo+1 and t_lo+2
///     (simd::window_pair); otherwise they are three gathers, zrow[t],
///     zrow[t+1] (zrow[] resolves the circular depth wrap of global
///     detector row t) and the texel pairs of both texture rows.
///
/// Products fuse only where the code says fmadd: the file compiles with
/// -ffp-contract=off, so the bits follow the source, not GCC's choice of
/// which product of a sum to contract.  Per voxel the operations, their
/// association and the view order of the sum are those of the per-(view,
/// row) loop this replaced, lanes compute alone, and both tap paths load
/// the same texels, so the output is bitwise identical to it at every lane
/// width (test_simd keeps that loop as its oracle).  Indices fit int32 by
/// the texture-size require below.
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
    const index_t nx_pad = (d.x + W - 1) / W * W;
    // The window path needs a row at least one window wide, and pays only
    // where window_pair is a register permute.
    const bool windows = simd::kWindowLoads && width >= simd::kWindow;

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
    // Last pair start in a window, and last window start in a row.
    const simd::VecF vwin_span = simd::splat(static_cast<float>(simd::kWindow - 2));
    const simd::VecF vwin_last = simd::splat(static_cast<float>(width - simd::kWindow));
    const double kk0 = static_cast<double>(off.volume_z);

    // Blocks vary in cost (masked columns are skipped), so they are handed
    // out one at a time.  Each pool slot owns acc[block][nz][nx_pad] and
    // the block's y constants yrow[block][views][nz], all in one lease on
    // the calling thread.  The body captures the constants by value: a
    // vector store may alias any object, and through a by-reference closure
    // GCC reloads each constant via a second pointer inside the k loop
    // (~20 % of bp in a kernel micro-benchmark).
    const index_t min_blocks = kBlocksPerSlot * static_cast<index_t>(parallel::width());
    const index_t block = std::clamp<index_t>(d.y / min_blocks, 1, kRowBlock);
    const index_t plane = d.z * nx_pad;
    const std::size_t per_slot = static_cast<std::size_t>(block * (plane + views * d.z));
    scratch::Buffer<float> lease(parallel::width() * per_slot);
    float* const slots = lease.data();
    const index_t blocks = (d.y + block - 1) / block;
    parallel::parallel_for(blocks, 1, [=, &pack, &vol](index_t b, std::size_t slot) {
        const index_t j0 = b * block;
        const index_t rows = std::min(block, d.y - j0);
        float* const acc = slots + slot * per_slot;  // acc[(r * nz + k) * nx_pad + i]
        float* const yrow = acc + block * plane;     // yrow[(r * views + s) * nz + k]
        std::fill_n(acc, rows * plane, 0.0f);
        for (index_t r = 0; r < rows; ++r) {
            const double jj = static_cast<double>(j0 + r);
            float* const yr = yrow + r * views * d.z;
            for (index_t k = 0; k < d.z; ++k) {
                const double kk = static_cast<double>(k + off.volume_z);
                for (index_t s = 0; s < views; ++s) {
                    const Mat34& m = pack.dmat(s);
                    yr[s * d.z + k] =
                        static_cast<float>(simd::fmadd(m[1].y, jj, m[1].z * kk) + m[1].w);
                }
            }
        }
        for (index_t s = 0; s < views; ++s) {
            const Mat34& m = pack.dmat(s);
            const auto& f = pack.fmat(s);
            const simd::VecF vdxn = simd::splat(f[0]);
            const simd::VecF vdyn = simd::splat(f[4]);
            const simd::VecF vdzn = simd::splat(f[8]);
            const simd::VecI vsrow = simd::splat_i(static_cast<std::int32_t>(s * width));
            const float* const srow = texel + s * width;

            for (index_t r = 0; r < rows; ++r) {
                const double jj = static_cast<double>(j0 + r);
                // Zero z column: the same floats at every k of the slab.
                const float xn0 =
                    static_cast<float>(simd::fmadd(m[0].y, jj, m[0].z * kk0) + m[0].w);
                const float zn0 =
                    static_cast<float>(simd::fmadd(m[2].y, jj, m[2].z * kk0) + m[2].w);
                const float* yn0 = yrow + (r * views + s) * d.z;
                float* const acc_r = acc + r * plane;
                const simd::VecF vxn0 = simd::splat(xn0);
                const simd::VecF vzn0 = simd::splat(zn0);

                for (index_t i = 0; i < d.x; i += W) {
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
                    // Group g's window [w0[g], w0[g] + kWindow) of every
                    // texture row: it holds each of the group's pairs and
                    // ends inside the row.  x is monotonic in i up to
                    // rounding, so a group's end lanes bracket its pairs;
                    // the compare checks every lane.
                    const simd::VecF cmin = simd::group_lo(pair);
                    const bool in_window =
                        windows && simd::all(simd::cmp_ge(pair, cmin) &
                                             simd::cmp_le(pair, cmin + vwin_span));
                    const simd::VecF w0 = simd::min_(cmin, vwin_last);
                    const simd::VecI wcol = simd::to_int(pair - w0);
                    std::array<const float*, kGroups> wrow{};
                    if (in_window) {
                        const std::array<float, kGroups> w0g = simd::group_heads(w0);
                        for (std::size_t g = 0; g < kGroups; ++g)
                            wrow[g] = srow + static_cast<std::ptrdiff_t>(w0g[g]);
                    }
                    float* acc_k = acc_r + i;
                    for (index_t k = 0; k < d.z; ++k, acc_k += nx_pad) {
                        const simd::VecF y =
                            simd::fmadd(ii, vdyn, simd::splat(yn0[k])) / zn_safe;
                        const simd::Mask ok =
                            xok & simd::cmp_ge(y, vzero) & simd::cmp_le(y, vyhi);
                        if (simd::none(ok)) continue;
                        const simd::VecF yc = simd::clamp(y, vzero, vyhi);
                        const simd::VecF fy = simd::floor_(yc);
                        const simd::VecF dv = yc - fy;
                        // Rows t_lo and t_lo + 1 of group g hold each of its
                        // upper taps, with t_lo from its end lanes as for x.
                        simd::VecF r0lo{}, f01{}, r1lo{}, f11{};
                        const simd::VecF tlo = simd::group_lo(fy);
                        if (in_window && simd::all(simd::cmp_ge(fy, tlo) &
                                                   simd::cmp_le(fy, tlo + vone))) {
                            const std::array<float, kGroups> t = simd::group_heads(tlo);
                            std::array<const float*, kGroups> w[3];
                            for (std::size_t g = 0; g < kGroups; ++g) {
                                const auto* z = zrow + static_cast<std::int32_t>(t[g]);
                                for (int row = 0; row < 3; ++row) w[row][g] = wrow[g] + z[row];
                            }
                            const auto [a0, a1] = simd::window_pair(w[0], wcol);
                            const auto [b0, b1] = simd::window_pair(w[1], wcol);
                            const auto [c0, c1] = simd::window_pair(w[2], wcol);
                            const simd::Mask second = simd::cmp_gt(fy, tlo);
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
                        const simd::VecF row0 = simd::fmadd(f01, du, f00 * one_du);
                        const simd::VecF row1 = simd::fmadd(f11, du, f10 * one_du);
                        const simd::VecF bil = simd::fmadd(row1, dv, row0 * one_dv);
                        const simd::VecF contrib = simd::blend(ok, wgt * bil, vzero);
                        simd::store(acc_k, simd::load(acc_k) + contrib);
                    }
                }
            }
        }
        for (index_t r = 0; r < rows; ++r)
            for (index_t k = 0; k < d.z; ++k)
                for (index_t i = 0; i < d.x; ++i)
                    vol.at(i, j0 + r, k) += acc[(r * d.z + k) * nx_pad + i];
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
