#pragma once
// FDK filtering computation (Sec. 2.2.3, Eq. 2):
//
//   P'(u,v) = { Dsd / sqrt(D(u,v)^2 + Dsd^2) * P(u,v) } (*) f_ramp
//
// i.e. a point-wise cosine weighting followed by a row-wise 1D linear
// convolution with the ramp filter, evaluated with the FFT.
//
// Discretisation: the band-limited ramp kernel of Kak & Slaney (Ch. 3),
// including the Delta_u integration factor:
//
//   tap(0)      =  1 / (4 du)
//   tap(n odd)  = -1 / (pi^2 n^2 du)
//   tap(n even) =  0
//
// Apodisation windows (Shepp-Logan / cosine / Hamming / Hann) are applied
// in the frequency domain on top of the ramp, as in classical FBP codes.
//
// Padding: rows are convolved circularly at N = next_pow2(2 Nu), not at
// the full linear length Nu + (2 Nu + 1) - 1.  Output u reads
// sum_j x[j] tap(u - j) with u, j in [0, Nu), so only taps |n| <= Nu - 1
// ever reach an output; at N >= 2 Nu those sit at distinct circular
// indices and nothing wraps onto them.  The two outermost taps n = +-Nu
// fold onto the one circular index no output reads (and are zero for even
// Nu anyway), so the result equals the linear convolution exactly.
//
// FDK scaling: FilterEngine folds the angular quadrature and the
// real-to-virtual-detector change of variables,
//
//   scale = pi / Np * (Dsd / Dso),
//
// into the kernel, so back-projection only applies the per-voxel 1/z^2
// distance weight (Algorithm 1 line 9) and the reconstructed values
// approximate the attenuation field directly (derivation in DESIGN.md §6).

#include <complex>
#include <string>
#include <vector>

#include "core/geometry.hpp"
#include "core/preprocess.hpp"
#include "core/volume.hpp"

namespace xct::fft {
struct Plan;
}

namespace xct::filter {

class ParkerWeights;

/// Apodisation window applied on top of the ramp response.
enum class Window { RamLak, SheppLogan, Cosine, Hamming, Hann };

/// Parse a window name ("ram-lak", "shepp-logan", "cosine", "hamming",
/// "hann"); throws std::invalid_argument on unknown names.
Window window_from_name(const std::string& name);

/// Spatial-domain band-limited ramp taps of length 2*half_width + 1
/// (centred; includes the du factor — see file header).
std::vector<float> ramp_kernel(index_t half_width, double du);

/// Window gain at normalised frequency x in [0, 1] (x = f / f_Nyquist).
double window_gain(Window w, double x);

/// Per-texel steps before the Eq. 2 weight, both optional: Eq. 1 for raw
/// counts, and the Parker table of the stack's views for a short scan.
struct Prologue {
    const BeerLawScalar* beer = nullptr;
    const ParkerWeights* parker = nullptr;
};

/// Row-parallel FDK filter: cosine weighting + windowed ramp convolution
/// for every detector row of a projection stack.  One engine precomputes
/// the padded kernel spectrum and the Nv x Nu table of Eq. 2 cosine
/// weights once and is then reusable across batches (this is the
/// pipeline's "filter thread" work); weighting a row is one fp32 multiply
/// per pixel.
class FilterEngine {
public:
    /// `extra_scale` multiplies the kernel on top of the FDK scale; the
    /// distributed driver uses it for partial-scan normalisation tweaks.
    FilterEngine(const CbctGeometry& g, Window w = Window::RamLak, double extra_scale = 1.0);

    /// Weight + filter one detector row in place.  `v_global` is the row's
    /// global detector coordinate (needed for the cosine weight when the
    /// stack holds only a band).  Production path: single-precision FFT
    /// against the cached plan, pooled scratch (zero heap allocations when
    /// warm); agrees with apply_row_reference to fp32 rounding (bound
    /// documented in test_simd).
    void apply_row(std::span<float> row, index_t v_global) const;

    /// The original double-precision per-row path (per-call buffers,
    /// reference transform) — the accuracy baseline the fp32 path is
    /// tested and benchmarked against.
    void apply_row_reference(std::span<float> row, index_t v_global) const;

    /// Weight + filter two rows with ONE complex FFT round-trip: the rows
    /// are packed as re + i*im; because the kernel taps are real, the
    /// packed spectrum stays packed under multiplication, so this computes
    /// apply_row(a) and apply_row(b) at half the transform cost, to fp32
    /// rounding (the classic real-pair FFT trick — see test_filter).  It
    /// is the bitwise oracle of apply(): each pair there is one lane of a
    /// batched transform doing exactly this arithmetic.
    void apply_row_pair(std::span<float> a, index_t va, std::span<float> b, index_t vb) const;

    /// Weight + filter every row of the stack in place.  Row pairs (2p,
    /// 2p + 1) from the band start, and an odd last row on its own, go
    /// through fft::kBatch-lane batched transforms, batches spread over
    /// the worker pool.  The pack takes each texel raw count -> Eq. 1 ->
    /// Parker weight (as `pre` asks) -> Eq. 2 weight, so the result is
    /// bitwise beer_law, then ParkerWeights::apply, then apply_row_pair on
    /// each pair and apply_row on the odd row, at any thread count.  With
    /// `extent`, the unpack also folds the result's io::value_range.
    /// Throws std::invalid_argument, before touching the stack, when the
    /// band leaves [0, Nv), blank <= dark, or the Parker table does not
    /// match the stack's views and columns.
    void apply(ProjectionStack& stack, const Prologue& pre = {}, Extent* extent = nullptr) const;

    index_t padded_len() const { return padded_; }

private:
    /// Eq. 2 point-wise cosine weighting of one row.
    void weight_row(std::span<float> row, index_t v_global) const;

    index_t nu_ = 0;
    index_t nv_ = 0;
    index_t padded_ = 0;
    index_t offset_ = 0;
    /// Dsd / sqrt(pu^2 + pv^2 + Dsd^2) per detector pixel, row-major.
    std::vector<float> weights_;
    const fft::Plan* plan_ = nullptr;  ///< borrowed from the process PlanCache
    std::vector<std::complex<double>> kernel_spectrum_;
    std::vector<std::complex<float>> kernel_spectrum_f_;
};

}  // namespace xct::filter
