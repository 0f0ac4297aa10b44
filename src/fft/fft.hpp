#pragma once
// Self-contained FFT substrate for the filtering stage (the paper uses
// Intel IPP/MKL on the CPU for this step; we provide an equivalent).
//
// Provides an iterative radix-2 decimation-in-time complex FFT plus helpers
// for real input and power-of-two padded linear convolution.  Sizes are
// restricted to powers of two — the filter engine always pads to
// next_pow2(2 * Nu), so no general-size transform is required.  2 * Nu is
// enough for a circular transform there: the Nu outputs only read ramp
// taps |n| <= Nu - 1, which cannot alias at that length (argument in
// filter/ramp.hpp).
//
// Performance layer (DESIGN.md §3e): transforms are driven by a cached
// Plan (bit-reversal permutation + twiddle tables, built once per size in
// a process-wide PlanCache).  Filtering runs in single precision, kBatch
// transforms at once (transform_batch_f, one vector operation per
// butterfly); each lane is bit for bit transform_f.  The double-precision
// transform_reference() preserves the original per-call algorithm as the
// accuracy baseline for tests and benchmarks.

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace xct::fft {

/// Smallest power of two >= n (n >= 1).
index_t next_pow2(index_t n);

/// True when n is a power of two (n >= 1).
bool is_pow2(index_t n);

/// Precomputed execution plan for one transform size: the bit-reversal
/// permutation and the n/2 forward twiddle roots e^{-2*pi*i*k/n} in both
/// precisions.  Inverse transforms conjugate the same table, so one plan
/// serves both directions.  Plans are immutable after construction.
///
/// Besides the root-indexed table, the plan carries a stage-major copy
/// (stage_twiddle_*): the butterflies of stage `len` read their len/2
/// twiddles contiguously at stage_offset[log2(len)-1] instead of striding
/// by n/len through the root table.  Sequential loads are what lets the
/// compiler vectorise the butterfly loop — measured ~8x on the planned
/// kernel at n=1024 (see micro_kernels "fft" section).
struct Plan {
    index_t n = 0;
    std::vector<std::uint32_t> bitrev;            ///< index -> bit-reversed index
    std::vector<std::complex<float>> twiddle_f;   ///< n/2 forward roots
    std::vector<std::complex<double>> twiddle_d;  ///< n/2 forward roots
    std::vector<std::size_t> stage_offset;        ///< per stage, into stage_twiddle_*
    std::vector<std::complex<float>> stage_twiddle_f;   ///< n-1 stage-major roots
    std::vector<std::complex<double>> stage_twiddle_d;  ///< n-1 stage-major roots
};

/// Borrow the process-wide plan for size n (power of two) from the
/// PlanCache, building it on first use.  The returned reference is stable
/// for the process lifetime; the lookup is mutex-guarded, so engines that
/// transform per row should resolve their plan once at construction.
/// Cache traffic is observable as fft.plan.{hits,misses}.
const Plan& plan_for(index_t n);

/// In-place complex FFT of power-of-two length.  `inverse` selects the
/// inverse transform, which includes the 1/N normalisation (so
/// fft(ifft(x)) == x).  Uses the cached plan for its size.
void transform(std::span<std::complex<double>> data, bool inverse);

/// The pre-plan-cache double transform (twiddles recomputed per call by
/// incremental multiplication).  Kept verbatim as the accuracy/perf
/// baseline: tests bound transform_f against it, micro_kernels measures
/// the fp32 speedup against it.
void transform_reference(std::span<std::complex<double>> data, bool inverse);

/// Single-precision in-place complex FFT (the production filtering path).
/// The plan-taking overload skips the cache lookup entirely.
void transform_f(std::span<std::complex<float>> data, bool inverse);
void transform_f(std::span<std::complex<float>> data, const Plan& plan, bool inverse);

/// Lanes of the batched fp32 transform.  Eight fill one AVX2 vector; at
/// n = 512 sixteen would need 64 KB per batch buffer, more than an L1.
inline constexpr std::size_t kBatch = 8;

/// kBatch independent fp32 transforms of size plan.n, in place, in
/// structure-of-arrays blocks: sample i of lane l has its real part at
/// data[2 * kBatch * i + l] and its imaginary part kBatch floats later
/// (data.size() == 2 * kBatch * plan.n).  Each lane does exactly the
/// arithmetic of transform_f except for two element-wise passes the
/// caller fuses into its own loops: the input must already sit at its
/// bit-reversed block (sample i in block plan.bitrev[i]), and the inverse
/// is left unscaled (multiply by the float 1 / n while reading it out).
/// Adds `live`, the lanes that carry data, to fft.transforms.f32.
void transform_batch_f(std::span<float> data, const Plan& plan, bool inverse, std::size_t live);

/// The fp32 multiply_spectra on every lane of a transform_batch_f block
/// layout, writing each product to its bit-reversed block of `out`, so
/// `out` is ready for the inverse transform_batch_f.
void multiply_spectra_batch(std::span<const float> in, std::span<const std::complex<float>> kernel,
                            const Plan& plan, std::span<float> out);

/// Out-of-place forward FFT of a real signal zero-padded to `n` (power of
/// two, n >= signal length).  Returns the full n-point complex spectrum.
std::vector<std::complex<double>> real_forward(std::span<const float> signal, index_t n);

/// Single-precision spectrum of a real signal: computed in double
/// precision and rounded per bin, so a cached fp32 kernel spectrum carries
/// only one rounding beyond its double counterpart.
std::vector<std::complex<float>> real_forward_f(std::span<const float> signal, index_t n);

/// Cyclic convolution theorem helper: multiply spectra element-wise in
/// place (a *= b).  Sizes must match.  The fp32 overload is written in
/// explicit real/imag arithmetic so it vectorises (and fuses like
/// multiply_spectra_batch); it skips std::complex's inf/NaN recovery,
/// which finite filter data never needs.
void multiply_spectra(std::span<std::complex<double>> a, std::span<const std::complex<double>> b);
void multiply_spectra(std::span<std::complex<float>> a, std::span<const std::complex<float>> b);

/// Linear convolution of `signal` (length m) with `kernel` (length l) via
/// zero-padded FFT; returns the first `m` samples of the full convolution
/// starting at output index `offset` (use offset = (l-1)/2 for a centred,
/// "same"-size filter result).  Double-precision path (correctness
/// utility, not the hot loop).
std::vector<float> convolve_same(std::span<const float> signal, std::span<const float> kernel,
                                 index_t offset);

/// A reusable plan for filtering many equal-length rows with one fixed
/// kernel spectrum: precomputes the padded kernel FFT once.  Double
/// precision only — the ground truth test_fft checks the transforms
/// against; the production filter is filter::FilterEngine.
class RowConvolver {
public:
    /// `row_len` is the signal length (Nu); `kernel` the spatial-domain
    /// filter taps; `offset` selects which output sample aligns with the
    /// first input sample (centred kernels use (taps-1)/2).
    RowConvolver(index_t row_len, std::span<const float> kernel, index_t offset);

    index_t row_len() const { return row_len_; }
    index_t padded_len() const { return padded_; }

    /// Filter one row in place (row.size() == row_len()).  Double
    /// precision, pooled scratch — zero heap allocations when warm.
    void apply(std::span<float> row) const;

    /// The original per-row double path with per-call buffers and the
    /// reference transform — the baseline apply() is tested and
    /// benchmarked against.
    void apply_reference(std::span<float> row) const;

private:
    index_t row_len_ = 0;
    index_t padded_ = 0;
    index_t offset_ = 0;
    std::vector<std::complex<double>> kernel_spectrum_;
};

}  // namespace xct::fft
