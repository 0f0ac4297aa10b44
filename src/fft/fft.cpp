#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numbers>

#include "core/mutex.hpp"
#include "core/names.hpp"
#include "core/scratch.hpp"
#include "core/simd.hpp"
#include "telemetry/metrics.hpp"

namespace xct::fft {

index_t next_pow2(index_t n)
{
    require(n >= 1, "next_pow2: n must be >= 1");
    index_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

bool is_pow2(index_t n)
{
    return n >= 1 && (n & (n - 1)) == 0;
}

namespace {

/// Process-wide plan store.  Plans are built outside the lock and
/// try_emplace'd, so a losing racer just drops its copy; the map holds
/// unique_ptrs so returned references stay stable across rehashes.
struct PlanCache {
    Mutex m{"fft.plan_cache"};
    std::map<index_t, std::unique_ptr<Plan>> plans XCT_GUARDED_BY(m);
};

PlanCache& plan_cache()
{
    static PlanCache c;
    return c;
}

std::unique_ptr<Plan> build_plan(index_t n)
{
    auto plan = std::make_unique<Plan>();
    plan->n = n;
    const std::size_t un = static_cast<std::size_t>(n);

    plan->bitrev.resize(un);
    for (std::size_t i = 0, j = 0; i < un; ++i) {
        plan->bitrev[i] = static_cast<std::uint32_t>(j);
        std::size_t bit = un >> 1;
        for (; j & bit; bit >>= 1) j ^= bit;
        j ^= bit;
    }

    plan->twiddle_d.resize(un / 2);
    plan->twiddle_f.resize(un / 2);
    for (std::size_t k = 0; k < un / 2; ++k) {
        const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) /
                           static_cast<double>(n);
        plan->twiddle_d[k] = {std::cos(ang), std::sin(ang)};
        plan->twiddle_f[k] = {static_cast<float>(plan->twiddle_d[k].real()),
                              static_cast<float>(plan->twiddle_d[k].imag())};
    }

    // Stage-major copy: stage `len` owns the len/2 roots e^{-2*pi*i*j/len},
    // which are the root-table entries at stride n/len laid out densely.
    for (std::size_t len = 2; len <= un; len <<= 1) {
        plan->stage_offset.push_back(plan->stage_twiddle_d.size());
        const std::size_t stride = un / len;
        for (std::size_t j = 0; j < len / 2; ++j) {
            plan->stage_twiddle_d.push_back(plan->twiddle_d[j * stride]);
            plan->stage_twiddle_f.push_back(plan->twiddle_f[j * stride]);
        }
    }
    return plan;
}

/// Shared butterfly schedule over the plan's stage-major twiddle table.
/// Two deliberate codegen choices keep this loop vectorisable: butterflies
/// are written in explicit real/imag arithmetic (std::complex operator*
/// funnels through the NaN-checking __muldc3 libcall and defeats SIMD) and
/// each stage reads its twiddles sequentially, with the inverse direction
/// folded into a sign applied to the imaginary part instead of a
/// per-butterfly conjugate.  The products fuse by simd::fmadd's rule,
/// which is what transform_batch_f's lanes repeat.
template <typename T>
void run_butterflies(std::span<std::complex<T>> data, const Plan& plan,
                     const std::vector<std::complex<T>>& stage_tw, bool inverse)
{
    const std::size_t n = data.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = plan.bitrev[i];
        if (i < j) std::swap(data[i], data[j]);
    }

    const T s = inverse ? T(-1) : T(1);
    std::size_t stage = 0;
    for (std::size_t len = 2; len <= n; len <<= 1, ++stage) {
        const std::complex<T>* tw = stage_tw.data() + plan.stage_offset[stage];
        const std::size_t half = len / 2;
        for (std::size_t i = 0; i < n; i += len) {
            std::complex<T>* a = data.data() + i;
            std::complex<T>* b = data.data() + i + half;
            for (std::size_t j = 0; j < half; ++j) {
                const T wr = tw[j].real();
                const T wi = s * tw[j].imag();
                const T ur = a[j].real(), ui = a[j].imag();
                const T xr = b[j].real(), xi = b[j].imag();
                const T vr = simd::fmadd(xr, wr, -(xi * wi));
                const T vi = simd::fmadd(xi, wr, xr * wi);
                a[j] = {ur + vr, ui + vi};
                b[j] = {ur - vr, ui - vi};
            }
        }
    }

    if (inverse) {
        const T inv_n = static_cast<T>(1.0 / static_cast<double>(n));
        for (auto& x : data) x *= inv_n;
    }
}

/// simd::kLanes lanes of one batch sample: the vectors at `block` (real
/// parts) and `block + kBatch` (imaginary parts).
struct Lanes {
    simd::VecF re, im;
};

Lanes load_lanes(const float* block) { return {simd::load(block), simd::load(block + kBatch)}; }

void store_lanes(float* block, Lanes x)
{
    simd::store(block, x.re);
    simd::store(block + kBatch, x.im);
}

/// A twiddle broadcast to every lane, with its negated imaginary part:
/// x * -wi is exactly -(x * wi).
struct Twiddle {
    simd::VecF re, im, neg_im;
};

/// run_butterflies' butterfly on every lane at once.
void butterfly(Lanes& a, Lanes& b, const Twiddle& w)
{
    const simd::VecF vr = simd::fmadd(b.re, w.re, b.im * w.neg_im);
    const simd::VecF vi = simd::fmadd(b.im, w.re, b.re * w.im);
    b = {a.re - vr, a.im - vi};
    a = {a.re + vr, a.im + vi};
}

static_assert(kBatch % simd::kLanes == 0, "a batch is a whole number of vectors");

}  // namespace

const Plan& plan_for(index_t n)
{
    require(is_pow2(n), "fft::plan_for: size must be a power of two");
    static telemetry::Counter& hits = telemetry::registry().counter(names::kMetricFftPlanHits);
    static telemetry::Counter& misses = telemetry::registry().counter(names::kMetricFftPlanMisses);
    PlanCache& cache = plan_cache();
    {
        MutexLock lock(cache.m);
        auto it = cache.plans.find(n);
        if (it != cache.plans.end()) {
            hits.add(1);
            return *it->second;
        }
    }
    std::unique_ptr<Plan> built = build_plan(n);
    MutexLock lock(cache.m);
    auto [it, inserted] = cache.plans.try_emplace(n, std::move(built));
    if (inserted)
        misses.add(1);
    else
        hits.add(1);
    return *it->second;
}

void transform(std::span<std::complex<double>> data, bool inverse)
{
    const std::size_t n = data.size();
    require(is_pow2(static_cast<index_t>(n)), "fft::transform: size must be a power of two");
    if (n == 1) return;

    // One relaxed atomic add per transform — negligible against the
    // O(n log n) butterflies, so this counts unconditionally.
    static telemetry::Counter& transforms = telemetry::registry().counter(names::kMetricFftTransforms);
    transforms.add(1);

    const Plan& plan = plan_for(static_cast<index_t>(n));
    run_butterflies(data, plan, plan.stage_twiddle_d, inverse);
}

void transform_reference(std::span<std::complex<double>> data, bool inverse)
{
    const std::size_t n = data.size();
    require(is_pow2(static_cast<index_t>(n)),
            "fft::transform_reference: size must be a power of two");
    if (n == 1) return;

    static telemetry::Counter& transforms = telemetry::registry().counter(names::kMetricFftTransforms);
    transforms.add(1);

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1) j ^= bit;
        j ^= bit;
        if (i < j) std::swap(data[i], data[j]);
    }

    // Iterative Cooley-Tukey butterflies with per-call twiddle recurrence.
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double ang = (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
        const std::complex<double> wlen{std::cos(ang), std::sin(ang)};
        for (std::size_t i = 0; i < n; i += len) {
            std::complex<double> w{1.0, 0.0};
            for (std::size_t j = 0; j < len / 2; ++j) {
                const std::complex<double> u = data[i + j];
                const std::complex<double> v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w *= wlen;
            }
        }
    }

    if (inverse) {
        const double inv_n = 1.0 / static_cast<double>(n);
        for (auto& x : data) x *= inv_n;
    }
}

void transform_f(std::span<std::complex<float>> data, const Plan& plan, bool inverse)
{
    require(static_cast<std::size_t>(plan.n) == data.size(),
            "fft::transform_f: plan size mismatch");
    if (data.size() == 1) return;

    static telemetry::Counter& transforms =
        telemetry::registry().counter(names::kMetricFftTransformsF32);
    transforms.add(1);

    run_butterflies(data, plan, plan.stage_twiddle_f, inverse);
}

void transform_f(std::span<std::complex<float>> data, bool inverse)
{
    require(is_pow2(static_cast<index_t>(data.size())),
            "fft::transform_f: size must be a power of two");
    if (data.size() == 1) return;
    transform_f(data, plan_for(static_cast<index_t>(data.size())), inverse);
}

void transform_batch_f(std::span<float> data, const Plan& plan, bool inverse, std::size_t live)
{
    const std::size_t n = static_cast<std::size_t>(plan.n);
    require(data.size() == 2 * kBatch * n && live <= kBatch,
            "fft::transform_batch_f: data must hold 2 * kBatch * plan.n floats");
    if (n == 1) return;

    static telemetry::Counter& transforms =
        telemetry::registry().counter(names::kMetricFftTransformsF32);
    transforms.add(live);

    const float s = inverse ? -1.0f : 1.0f;
    const auto twiddle = [&](std::size_t stage, std::size_t j) {
        const std::complex<float> w = plan.stage_twiddle_f[plan.stage_offset[stage] + j];
        const float wi = s * w.imag();
        return Twiddle{simd::splat(w.real()), simd::splat(wi), simd::splat(-wi)};
    };
    const auto block = [&](std::size_t i) { return data.data() + 2 * kBatch * i; };

    // An odd stage count runs the len = 2 stage alone; every other pass
    // applies stages len and 2 * len to four samples held in registers.
    const std::size_t odd = plan.stage_offset.size() % 2;
    if (odd != 0) {
        const Twiddle w = twiddle(0, 0);
        for (std::size_t i = 0; i < n; i += 2)
            for (std::size_t v = 0; v < kBatch; v += simd::kLanes) {
                Lanes a = load_lanes(block(i) + v), b = load_lanes(block(i + 1) + v);
                butterfly(a, b, w);
                store_lanes(block(i) + v, a);
                store_lanes(block(i + 1) + v, b);
            }
    }
    for (std::size_t stage = odd, len = std::size_t{2} << odd; len < n; len <<= 2, stage += 2) {
        const std::size_t q = len / 2;
        for (std::size_t j = 0; j < q; ++j) {
            const Twiddle w1 = twiddle(stage, j);
            const Twiddle w2 = twiddle(stage + 1, j);
            const Twiddle w3 = twiddle(stage + 1, j + q);
            for (std::size_t i = j; i < n; i += 2 * len)
                for (std::size_t v = 0; v < kBatch; v += simd::kLanes) {
                    Lanes x[4];
                    for (std::size_t k = 0; k < 4; ++k) x[k] = load_lanes(block(i + k * q) + v);
                    butterfly(x[0], x[1], w1);
                    butterfly(x[2], x[3], w1);
                    butterfly(x[0], x[2], w2);
                    butterfly(x[1], x[3], w3);
                    for (std::size_t k = 0; k < 4; ++k) store_lanes(block(i + k * q) + v, x[k]);
                }
        }
    }
}

void multiply_spectra_batch(std::span<const float> in, std::span<const std::complex<float>> kernel,
                            const Plan& plan, std::span<float> out)
{
    const std::size_t n = static_cast<std::size_t>(plan.n);
    require(kernel.size() == n && in.size() == 2 * kBatch * n && out.size() == in.size(),
            "fft::multiply_spectra_batch: size mismatch");
    for (std::size_t i = 0; i < n; ++i) {
        const simd::VecF br = simd::splat(kernel[i].real()), bi = simd::splat(kernel[i].imag());
        const simd::VecF neg_bi = simd::splat(-kernel[i].imag());
        for (std::size_t v = 0; v < kBatch; v += simd::kLanes) {
            const Lanes a = load_lanes(in.data() + 2 * kBatch * i + v);
            store_lanes(out.data() + 2 * kBatch * plan.bitrev[i] + v,
                        {simd::fmadd(a.re, br, a.im * neg_bi), simd::fmadd(a.re, bi, a.im * br)});
        }
    }
}

std::vector<std::complex<double>> real_forward(std::span<const float> signal, index_t n)
{
    require(is_pow2(n) && n >= static_cast<index_t>(signal.size()),
            "fft::real_forward: n must be a power of two >= signal length");
    std::vector<std::complex<double>> buf(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < signal.size(); ++i) buf[i] = std::complex<double>(signal[i], 0.0);
    transform(buf, /*inverse=*/false);
    return buf;
}

std::vector<std::complex<float>> real_forward_f(std::span<const float> signal, index_t n)
{
    const std::vector<std::complex<double>> spec = real_forward(signal, n);
    std::vector<std::complex<float>> out(spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i)
        out[i] = {static_cast<float>(spec[i].real()), static_cast<float>(spec[i].imag())};
    return out;
}

void multiply_spectra(std::span<std::complex<double>> a, std::span<const std::complex<double>> b)
{
    require(a.size() == b.size(), "fft::multiply_spectra: size mismatch");
    for (std::size_t i = 0; i < a.size(); ++i) a[i] *= b[i];
}

void multiply_spectra(std::span<std::complex<float>> a, std::span<const std::complex<float>> b)
{
    require(a.size() == b.size(), "fft::multiply_spectra: size mismatch");
    // Explicit real/imag arithmetic, as in run_butterflies: operator*= goes
    // through the NaN-recovering __mulsc3 libcall and stays scalar.
    for (std::size_t i = 0; i < a.size(); ++i) {
        const float ar = a[i].real(), ai = a[i].imag();
        const float br = b[i].real(), bi = b[i].imag();
        a[i] = {simd::fmadd(ar, br, -(ai * bi)), simd::fmadd(ar, bi, ai * br)};
    }
}

std::vector<float> convolve_same(std::span<const float> signal, std::span<const float> kernel,
                                 index_t offset)
{
    const index_t m = static_cast<index_t>(signal.size());
    const index_t l = static_cast<index_t>(kernel.size());
    require(m > 0 && l > 0, "fft::convolve_same: empty inputs");
    require(offset >= 0 && offset < l, "fft::convolve_same: offset must lie within the kernel");

    RowConvolver conv(m, kernel, offset);
    std::vector<float> out(signal.begin(), signal.end());
    conv.apply(out);
    return out;
}

RowConvolver::RowConvolver(index_t row_len, std::span<const float> kernel, index_t offset)
    : row_len_(row_len), offset_(offset)
{
    require(row_len > 0, "RowConvolver: row_len must be positive");
    require(!kernel.empty(), "RowConvolver: kernel must be non-empty");
    require(offset >= 0 && offset < static_cast<index_t>(kernel.size()),
            "RowConvolver: offset must lie within the kernel");
    padded_ = next_pow2(row_len + static_cast<index_t>(kernel.size()) - 1);
    kernel_spectrum_ = real_forward(kernel, padded_);
}

void RowConvolver::apply(std::span<float> row) const
{
    require(static_cast<index_t>(row.size()) == row_len_, "RowConvolver::apply: row length mismatch");
    scratch::Buffer<std::complex<double>> lease(static_cast<std::size_t>(padded_));
    const std::span<std::complex<double>> buf = lease.span();
    for (index_t i = 0; i < row_len_; ++i)
        buf[static_cast<std::size_t>(i)] = std::complex<double>(row[static_cast<std::size_t>(i)], 0.0);
    std::fill(buf.begin() + row_len_, buf.end(), std::complex<double>{});
    transform(buf, /*inverse=*/false);
    multiply_spectra(buf, kernel_spectrum_);
    transform(buf, /*inverse=*/true);
    for (index_t i = 0; i < row_len_; ++i)
        row[static_cast<std::size_t>(i)] =
            static_cast<float>(buf[static_cast<std::size_t>(i + offset_)].real());
}

void RowConvolver::apply_reference(std::span<float> row) const
{
    require(static_cast<index_t>(row.size()) == row_len_,
            "RowConvolver::apply_reference: row length mismatch");
    std::vector<std::complex<double>> buf(static_cast<std::size_t>(padded_));
    for (index_t i = 0; i < row_len_; ++i)
        buf[static_cast<std::size_t>(i)] = std::complex<double>(row[static_cast<std::size_t>(i)], 0.0);
    transform_reference(buf, /*inverse=*/false);
    multiply_spectra(buf, kernel_spectrum_);
    transform_reference(buf, /*inverse=*/true);
    for (index_t i = 0; i < row_len_; ++i)
        row[static_cast<std::size_t>(i)] =
            static_cast<float>(buf[static_cast<std::size_t>(i + offset_)].real());
}

}  // namespace xct::fft
