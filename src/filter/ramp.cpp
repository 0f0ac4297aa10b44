#include "filter/ramp.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>

#include "core/names.hpp"
#include "core/parallel.hpp"
#include "core/preprocess.hpp"
#include "core/scratch.hpp"
#include "core/simd.hpp"
#include "fft/fft.hpp"
#include "filter/parker.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace xct::filter {

Window window_from_name(const std::string& name)
{
    if (name == "ram-lak" || name == "ramlak" || name == "ramp") return Window::RamLak;
    if (name == "shepp-logan") return Window::SheppLogan;
    if (name == "cosine") return Window::Cosine;
    if (name == "hamming") return Window::Hamming;
    if (name == "hann") return Window::Hann;
    throw std::invalid_argument("unknown filter window: " + name);
}

std::vector<float> ramp_kernel(index_t half_width, double du)
{
    require(half_width >= 1, "ramp_kernel: half_width must be >= 1");
    require(du > 0.0, "ramp_kernel: du must be positive");
    std::vector<float> taps(static_cast<std::size_t>(2 * half_width + 1), 0.0f);
    const double pi2 = std::numbers::pi * std::numbers::pi;
    taps[static_cast<std::size_t>(half_width)] = static_cast<float>(1.0 / (4.0 * du));
    for (index_t n = 1; n <= half_width; n += 2) {
        const float v = static_cast<float>(-1.0 / (pi2 * static_cast<double>(n * n) * du));
        taps[static_cast<std::size_t>(half_width + n)] = v;
        taps[static_cast<std::size_t>(half_width - n)] = v;
    }
    return taps;
}

double window_gain(Window w, double x)
{
    x = std::clamp(x, 0.0, 1.0);
    const double pi = std::numbers::pi;
    switch (w) {
        case Window::RamLak: return 1.0;
        case Window::SheppLogan: {
            const double a = pi * x / 2.0;
            return a == 0.0 ? 1.0 : std::sin(a) / a;
        }
        case Window::Cosine: return std::cos(pi * x / 2.0);
        case Window::Hamming: return 0.54 + 0.46 * std::cos(pi * x);
        case Window::Hann: return 0.5 * (1.0 + std::cos(pi * x));
    }
    return 1.0;  // unreachable
}

FilterEngine::FilterEngine(const CbctGeometry& g, Window w, double extra_scale)
{
    g.validate();
    nu_ = g.nu;
    nv_ = g.nv;

    // Eq. 2 cosine weights, evaluated once in double and rounded per pixel.
    const double dsd2 = g.dsd * g.dsd;
    const double cu = (static_cast<double>(g.nu) - 1.0) / 2.0 + g.sigma_u;
    const double cv = (static_cast<double>(g.nv) - 1.0) / 2.0 + g.sigma_v;
    weights_.resize(static_cast<std::size_t>(g.nv * g.nu));
    for (index_t v = 0; v < g.nv; ++v) {
        const double pv = g.dv * (static_cast<double>(v) - cv);
        for (index_t u = 0; u < g.nu; ++u) {
            const double pu = g.du * (static_cast<double>(u) - cu);
            weights_[static_cast<std::size_t>(v * g.nu + u)] =
                static_cast<float>(g.dsd / std::sqrt(pu * pu + pv * pv + dsd2));
        }
    }

    // FDK angular quadrature + virtual->real detector change of variables
    // folded into the kernel (see file header).  Full scans measure every
    // ray twice (factor 1/2); short scans rely on Parker weights summing
    // conjugate pairs to one, so the quadrature enters unhalved.
    const double angular = g.short_scan()
                               ? g.scan_range / static_cast<double>(g.num_proj)
                               : std::numbers::pi / static_cast<double>(g.num_proj);
    const double fdk_scale = angular * (g.dsd / g.dso) * extra_scale;

    // Circular kernel at the 2*Nu padding (see file header): taps fold
    // modulo padded_, which only ever merges the unread n = +-Nu pair.
    const std::vector<float> taps = ramp_kernel(g.nu, g.du);
    offset_ = g.nu;  // centre tap index: output sample i aligns with input i
    padded_ = fft::next_pow2(2 * nu_);
    std::vector<float> circular(static_cast<std::size_t>(padded_), 0.0f);
    for (std::size_t k = 0; k < taps.size(); ++k)
        circular[k % static_cast<std::size_t>(padded_)] += static_cast<float>(taps[k] * fdk_scale);
    kernel_spectrum_ = fft::real_forward(circular, padded_);

    // Apodisation in the frequency domain.  Bin k of the padded transform
    // corresponds to normalised frequency min(k, N-k) / (N/2).
    if (w != Window::RamLak) {
        const index_t n = padded_;
        for (index_t k = 0; k < n; ++k) {
            const index_t sym = std::min(k, n - k);
            const double x = static_cast<double>(sym) / (static_cast<double>(n) / 2.0);
            kernel_spectrum_[static_cast<std::size_t>(k)] *= window_gain(w, x);
        }
    }

    // fp32 copy of the (apodised) kernel spectrum + cached plan for the
    // production single-precision row path.
    plan_ = &fft::plan_for(padded_);
    kernel_spectrum_f_.resize(kernel_spectrum_.size());
    for (std::size_t i = 0; i < kernel_spectrum_.size(); ++i)
        kernel_spectrum_f_[i] = {static_cast<float>(kernel_spectrum_[i].real()),
                                 static_cast<float>(kernel_spectrum_[i].imag())};
}

void FilterEngine::weight_row(std::span<float> row, index_t v_global) const
{
    require(v_global >= 0 && v_global < nv_, "FilterEngine: row outside the detector");
    const std::size_t base = static_cast<std::size_t>(v_global * nu_);
    for (std::size_t u = 0; u < row.size(); ++u) row[u] *= weights_[base + u];
}

void FilterEngine::apply_row(std::span<float> row, index_t v_global) const
{
    require(static_cast<index_t>(row.size()) == nu_, "FilterEngine: row length != Nu");
    weight_row(row, v_global);

    // Row convolution with the precomputed fp32 kernel spectrum, pooled
    // scratch, cached plan — the production single-precision path.
    scratch::Buffer<std::complex<float>> lease(static_cast<std::size_t>(padded_));
    const std::span<std::complex<float>> buf = lease.span();
    for (index_t i = 0; i < nu_; ++i)
        buf[static_cast<std::size_t>(i)] =
            std::complex<float>(row[static_cast<std::size_t>(i)], 0.0f);
    std::fill(buf.begin() + nu_, buf.end(), std::complex<float>{});
    fft::transform_f(buf, *plan_, /*inverse=*/false);
    fft::multiply_spectra(buf, kernel_spectrum_f_);
    fft::transform_f(buf, *plan_, /*inverse=*/true);
    for (index_t i = 0; i < nu_; ++i)
        row[static_cast<std::size_t>(i)] = buf[static_cast<std::size_t>(i + offset_)].real();
}

void FilterEngine::apply_row_reference(std::span<float> row, index_t v_global) const
{
    require(static_cast<index_t>(row.size()) == nu_, "FilterEngine: row length != Nu");
    weight_row(row, v_global);

    // The pre-vectorisation double path: per-call buffer, reference
    // transform, full-precision kernel spectrum.
    std::vector<std::complex<double>> buf(static_cast<std::size_t>(padded_));
    for (index_t i = 0; i < nu_; ++i)
        buf[static_cast<std::size_t>(i)] =
            std::complex<double>(row[static_cast<std::size_t>(i)], 0.0);
    fft::transform_reference(buf, /*inverse=*/false);
    fft::multiply_spectra(buf, kernel_spectrum_);
    fft::transform_reference(buf, /*inverse=*/true);
    for (index_t i = 0; i < nu_; ++i)
        row[static_cast<std::size_t>(i)] =
            static_cast<float>(buf[static_cast<std::size_t>(i + offset_)].real());
}

void FilterEngine::apply_row_pair(std::span<float> a, index_t va, std::span<float> b,
                                  index_t vb) const
{
    require(static_cast<index_t>(a.size()) == nu_ && static_cast<index_t>(b.size()) == nu_,
            "FilterEngine: row length != Nu");
    weight_row(a, va);
    weight_row(b, vb);

    // Pack a + i b, one fp32 forward/inverse FFT pair for both rows.
    scratch::Buffer<std::complex<float>> lease(static_cast<std::size_t>(padded_));
    const std::span<std::complex<float>> buf = lease.span();
    for (index_t i = 0; i < nu_; ++i)
        buf[static_cast<std::size_t>(i)] =
            std::complex<float>(a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)]);
    std::fill(buf.begin() + nu_, buf.end(), std::complex<float>{});
    fft::transform_f(buf, *plan_, /*inverse=*/false);
    fft::multiply_spectra(buf, kernel_spectrum_f_);
    fft::transform_f(buf, *plan_, /*inverse=*/true);
    for (index_t i = 0; i < nu_; ++i) {
        a[static_cast<std::size_t>(i)] = buf[static_cast<std::size_t>(i + offset_)].real();
        b[static_cast<std::size_t>(i)] = buf[static_cast<std::size_t>(i + offset_)].imag();
    }
}

void FilterEngine::apply(ProjectionStack& stack, const Prologue& pre, Extent* extent) const
{
    require(stack.cols() == nu_, "FilterEngine: stack width != Nu");
    // Checked here, not per row, so a bad band throws before any row is
    // touched.
    require(stack.row_begin() >= 0 && stack.row_begin() + stack.rows() <= nv_,
            "FilterEngine: band outside the detector");
    const BeerLawScalar* const beer = pre.beer;
    const ParkerWeights* const parker = pre.parker;
    require(!beer || beer->blank > beer->dark, "FilterEngine: Beer-law blank must exceed dark");
    require(!parker || (parker->views().length() == stack.views() && parker->cols() == nu_),
            "FilterEngine: Parker table does not match the stack's views and columns");
    telemetry::ScopedTrace trace(names::kCatFilter, names::kSpanFilterApply, -1,
                                 static_cast<std::uint64_t>(stack.count()) * sizeof(float));
    {
        static telemetry::Counter& calls = telemetry::registry().counter(names::kMetricFilterApplyCalls);
        static telemetry::Counter& rows_filtered =
            telemetry::registry().counter(names::kMetricFilterRowsFiltered);
        calls.add(1);
        rows_filtered.add(static_cast<std::uint64_t>(stack.views() * stack.rows()));
    }
    // One task per apply_row_pair call, view-major, rows (2p, 2p + 1)
    // counted from the band start; an odd last row pairs with zeros, which
    // is what apply_row computes.  Lane l of a batch carries task first + l,
    // its first row in the real part and its second in the imaginary part.
    const index_t v0 = stack.row_begin();
    const index_t rows = stack.rows();
    const index_t per_view = (rows + 1) / 2;
    const index_t tasks = stack.views() * per_view;
    const index_t batch = static_cast<index_t>(fft::kBatch);
    const std::size_t n = static_cast<std::size_t>(padded_);
    const std::size_t nu = static_cast<std::size_t>(nu_);
    const std::size_t block = 2 * fft::kBatch;
    const float inv_n = static_cast<float>(1.0 / static_cast<double>(n));
    const simd::VecF dark = simd::splat(beer ? beer->dark : 0.0f);
    const simd::VecF blank = simd::splat(beer ? beer->blank : 1.0f);
    // A batch's rows are consecutive in the stack, so folding each row,
    // merging the rows into their batch's part and the parts in batch
    // order is the serial fold (Extent).
    const index_t batches = (tasks + batch - 1) / batch;
    scratch::Buffer<Extent> parts(extent ? static_cast<std::size_t>(batches) : 0);
    // One lease for the call: a spectrum and a convolution block per pool
    // slot, 64-byte aligned so no vector access straddles two cache lines
    // (~15 %).
    const std::size_t per_slot = 2 * block * n;
    scratch::Buffer<float> lease(parallel::width() * per_slot + block);
    void* raw = lease.data();
    std::size_t room = lease.size() * sizeof(float);
    float* const slots = static_cast<float*>(
        std::align(64, (lease.size() - block) * sizeof(float), raw, room));
    parallel::parallel_for(batches, 1, [&](index_t b, std::size_t slot) {
        const index_t first = b * batch;
        const std::size_t live = static_cast<std::size_t>(std::min(batch, tasks - first));
        const auto each_row = [&](auto&& visit) {
            for (std::size_t l = 0; l < live; ++l) {
                const index_t t = first + static_cast<index_t>(l), v = v0 + 2 * (t % per_view);
                visit(l, stack.row(t / per_view, v), v, t / per_view);
                if (v + 1 < v0 + rows)
                    visit(fft::kBatch + l, stack.row(t / per_view, v + 1), v + 1, t / per_view);
            }
        };
        float* const base = slots + slot * per_slot;
        const std::span<float> spec(base, block * n), conv(base + block * n, block * n);

        // The prologue and the Eq. 2 weighting on a vector of texels at a
        // time (the last nu % kLanes in the element form, the same ops),
        // scattered straight into bit-reversed blocks.  Padding lanes,
        // missing odd-row partners and samples past Nu stay zero and are
        // never written back.
        std::fill(spec.begin(), spec.end(), 0.0f);
        each_row([&](std::size_t lane, std::span<float> row, index_t v, index_t s) {
            const float* w = weights_.data() + v * nu_;
            const float* p = parker ? parker->view(s).data() : nullptr;
            std::size_t i = 0;
            for (; i + simd::kLanes <= nu; i += simd::kLanes) {
                simd::VecF x = simd::load(&row[i]);
                if (beer) x = beer_law_lanes(x, dark, blank);
                if (p) x = x * simd::load(p + i);
                float out[simd::kLanes];
                simd::store(out, x * simd::load(w + i));
                for (std::size_t l = 0; l < simd::kLanes; ++l)
                    spec[block * plan_->bitrev[i + l] + lane] = out[l];
            }
            for (; i < nu; ++i) {
                float x = row[i];
                if (beer) x = beer_law_texel(x, beer->dark, beer->blank);
                if (p) x *= p[i];
                spec[block * plan_->bitrev[i] + lane] = x * w[i];
            }
        });
        fft::transform_batch_f(spec, *plan_, /*inverse=*/false, live);
        fft::multiply_spectra_batch(spec, kernel_spectrum_f_, *plan_, conv);
        fft::transform_batch_f(conv, *plan_, /*inverse=*/true, live);
        const std::size_t at = block * static_cast<std::size_t>(offset_);
        Extent part;
        each_row([&](std::size_t lane, std::span<float> row, index_t, index_t) {
            for (std::size_t i = 0; i < nu; ++i) row[i] = conv[at + block * i + lane] * inv_n;
            if (extent) part.merge(extent_of(row));
        });
        if (extent) parts[static_cast<std::size_t>(b)] = part;
    });
    if (extent) {
        *extent = Extent{stack.span()[0], stack.span()[0]};
        for (const Extent& p : parts.span()) extent->merge(p);
    }
}

}  // namespace xct::filter
