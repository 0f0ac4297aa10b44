#pragma once
// The paper's streaming back-projection kernel (Listing 1), ported from
// CUDA onto the simulated device.
//
// Differences from the classical kernel that enable decomposition +
// out-of-core operation (Sec. 4.3):
//   * the volume is addressed with a global slice offset (offset_volume_z);
//   * projections live in a 3D texture whose *depth* axis is the detector
//     row dimension, addressed circularly (row - offset_proj_y, then
//     mod depth inside the texture) so row bands stream through a fixed
//     device allocation and the overlap between consecutive slabs is
//     reused without re-upload;
//   * every view updates a register accumulator and the volume is written
//     once per voxel, minimising device-memory traffic.
//
// Texture axis mapping (matches Listing 1's devPixel call):
//   x = detector column u, y = view index s, z = detector row v relative to
//   offset_proj_y.
//
// Performance layer (DESIGN.md §3e): the default backproject_streaming is
// a column walk with an explicit-SIMD loop over i (core/simd.hpp;
// AVX2/NEON when XCT_SIMD is ON, scalar lanes otherwise).  Because the
// detector is parallel to the rotation axis (MatrixPack::z_invariant),
// each view computes a voxel column's detector column, depth, masks and
// FDK weight once and walks the slab's z changing only the detector row.
//   * Blocks: each pool task owns up to 4 voxel rows j (fewer on slabs
//     too thin for four blocks per pool participant) and sweeps every
//     view over all of them before the next view, so a view's texels
//     come from L3 once per block, not once per row.  Per pool slot the
//     scratch is acc[rows][nz][nx] plus the block's y row constants
//     yrow[rows][views][nz], in one lease the caller takes per call; the
//     circular-row offset table zrow (nv + 2 entries) is shared.
//   * Taps: where simd::window_pair is loads (AVX-512F), a vector whose
//     lanes' tap pairs all lie in one 32-float window of a texture row and
//     whose detector rows are t_lo or t_lo + 1 picks its taps out of the
//     windows of rows t_lo..t_lo+2.  It falls back to the gathers
//     (simd::gather_pair off zrow) when the texture row is narrower than
//     the window, the lanes spread over more columns or rows, or the
//     target has no window loads.
// Both tap paths load the same texels and each voxel sums views in the
// same order, so the output is bitwise the per-(view, row) kernel's
// (test_simd's ColumnWalk oracle).  The original Listing-1 loop is
// retained as backproject_streaming_scalar and the agreement bound is
// documented below (kSimdVsScalarRelBound, asserted in
// test_simd/test_backproj).

#include <array>
#include <span>
#include <vector>

#include "core/geometry.hpp"
#include "core/volume.hpp"
#include "sim/device.hpp"

namespace xct::backproj {

/// Arguments of the streaming kernel that vary per slab (the gray-shaded
/// offsets of Listing 1).
struct StreamOffsets {
    index_t volume_z = 0;  ///< global z index of the slab's first slice
    index_t proj_y = 0;    ///< global detector row mapped to texture depth 0
};

/// Per-view projection matrices pre-converted for the kernel: the float
/// rows the CUDA kernel would read via __ldg, plus the original doubles
/// from which the incremental walk derives exact row constants.  Build
/// once per view share / slab schedule (SlabBackprojector caches one) —
/// previously every kernel call re-converted the full set.  Shared by the
/// fp32 and q8 paths.
class MatrixPack {
public:
    MatrixPack() = default;
    explicit MatrixPack(std::span<const Mat34> mats);

    index_t views() const { return static_cast<index_t>(dm_.size()); }
    bool empty() const { return dm_.empty(); }

    /// Row-major float 3x4 matrix of view s (rows x, y, z; columns i,j,k,1).
    const std::array<float, 12>& fmat(index_t s) const
    {
        return fm_[static_cast<std::size_t>(s)];
    }
    /// The original double-precision matrix of view s.
    const Mat34& dmat(index_t s) const { return dm_[static_cast<std::size_t>(s)]; }

    /// True when every view has m[0].z == m[2].z == 0 (detector parallel to
    /// the rotation axis, as projection_matrix builds it), so detector
    /// column and depth do not change along z; backproject_streaming needs it.
    bool z_invariant() const { return z_invariant_; }

private:
    std::vector<std::array<float, 12>> fm_;
    std::vector<Mat34> dm_;
    bool z_invariant_ = true;
};

/// Accumulate the back-projection of all `pack.views()` views held in
/// `tex` into the slab `vol`.  `nu`/`nv` are the full detector dimensions
/// for the off-detector bounds test.  The slab must be zero-initialised
/// (or hold a partial accumulation from a previous view batch).  This is
/// the vectorised column-walk kernel (see file header); it throws
/// std::invalid_argument unless `pack.z_invariant()` and nu >= 2.
void backproject_streaming(const sim::Texture3& tex, const MatrixPack& pack, Volume& vol,
                           const StreamOffsets& off, index_t nu, index_t nv);

/// The original scalar Listing-1 loop (voxel-major, full dot products per
/// view), retained as the in-build reference the vectorised kernel is
/// bounded against.
void backproject_streaming_scalar(const sim::Texture3& tex, const MatrixPack& pack, Volume& vol,
                                  const StreamOffsets& off, index_t nu, index_t nv);

/// The same kernel over an 8-bit quantised texture — CUDA's *hardware*
/// texture-interpolation precision, which the paper rejects (Sec. 4.3.1)
/// in favour of fp32 manual interpolation.  Exists for the precision
/// ablation (bench/ablation_interpolation_precision); stays scalar but
/// shares the MatrixPack with the fp32 path.
void backproject_streaming_q8(const sim::QuantizedTexture3& tex, const MatrixPack& pack,
                              Volume& vol, const StreamOffsets& off, index_t nu, index_t nv);

/// Documented agreement bound between the vectorised default kernel and
/// the scalar Listing-1 loop:
///
///   max_voxel |simd - scalar|  <=  kSimdVsScalarRelBound * max_voxel |scalar|
///
/// Sources of divergence, all O(1 ulp) per sample: the incremental walk
/// evaluates x/y/z as fma(i, step, row_constant) instead of the full
/// 4-term dot product (different association), divides once by a
/// sanitised zn, and the bilinear weights come from clamped coordinates.
/// Accumulated over views the error stays well under 1e-4 of the field
/// maximum; the bound below carries ~10x margin (measured in test_simd
/// across randomized geometries including Table-4 calibration offsets).
inline constexpr float kSimdVsScalarRelBound = 2e-4f;

/// Floating-point operations per (voxel, view) update of Listing 1's
/// algorithm — used by the roofline analysis (Fig. 12).  It counts the
/// algorithm, not what executes: the column walk hoists x, zn and the
/// weight out of z and so runs fewer flops per update, but fig12 keeps
/// the paper's count so its FLOP/s stay comparable with the paper's.
inline constexpr double kFlopsPerUpdate = 38.0;

}  // namespace xct::backproj
