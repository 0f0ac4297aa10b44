// Google-benchmark micro suite (the Sec. 5 "micro-benchmark
// measurements"): per-kernel throughputs feeding the performance model,
// plus kernel parity checks (ours vs reference vs RTK-style) at the
// machine level.
//
// Besides the google-benchmark tables, `--out PATH` writes the BENCH
// document (CI passes BENCH_pr4.json) — the machine-readable
// scalar-vs-vectorised numbers (voxel updates/s, views/s, filter rows/s,
// steady-state scratch-pool heap events) CI archives as the perf
// trajectory (EXPERIMENTS.md "roofline" note).  Without --out no file is
// written, so a filtered run cannot overwrite a committed copy.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <vector>

#include "autotune/planner.hpp"
#include "backproj/kernel.hpp"
#include "backproj/reference.hpp"
#include "backproj/rtk_style.hpp"
#include "bench_common.hpp"
#include "core/decompose.hpp"
#include "core/names.hpp"
#include "core/parallel.hpp"
#include "core/scratch.hpp"
#include "core/simd.hpp"
#include "fft/fft.hpp"
#include "integrity/hash.hpp"
#include "integrity/integrity.hpp"
#include "io/band_codec.hpp"
#include "io/datasets.hpp"
#include "filter/ramp.hpp"
#include "minimpi/comm.hpp"
#include "perfmodel/model.hpp"
#include "phantom/shepp_logan.hpp"
#include "recon/fdk.hpp"
#include "recon/quality.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace {
using namespace xct;

CbctGeometry bench_geo(index_t n)
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = 32;
    g.nu = 2 * n;
    g.nv = 2 * n;
    g.du = g.dv = 0.4;
    g.vol = {n, n, n};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, n) * 0.7;
    return g;
}

ProjectionStack random_stack(const CbctGeometry& g)
{
    ProjectionStack p(g.num_proj, g.nv, g.nu);
    std::mt19937 rng(7);
    std::uniform_real_distribution<float> u(0.0f, 1.0f);
    for (float& v : p.span()) v = u(rng);
    return p;
}

void BM_BackprojStreaming(benchmark::State& state)
{
    const CbctGeometry g = bench_geo(state.range(0));
    const ProjectionStack p = random_stack(g);
    const auto mats = projection_matrices(g);
    sim::Device dev(1u << 30);
    sim::Texture3 tex(dev, g.nu, g.num_proj, g.nv);
    std::vector<float> plane(static_cast<std::size_t>(g.nu * g.num_proj));
    for (index_t v = 0; v < g.nv; ++v) {
        for (index_t s = 0; s < g.num_proj; ++s) {
            const auto row = p.row(s, v);
            std::copy(row.begin(), row.end(),
                      plane.begin() + static_cast<std::ptrdiff_t>(s * g.nu));
        }
        tex.copy_planes(plane, v, 1);
    }
    Volume vol(g.vol);
    const backproj::MatrixPack pack(mats);
    for (auto _ : state) {
        backproj::backproject_streaming(tex, pack, vol, backproj::StreamOffsets{0, 0}, g.nu, g.nv);
        benchmark::DoNotOptimize(vol.span().data());
    }
    state.counters["GUPS"] = benchmark::Counter(
        static_cast<double>(g.vol.count()) * static_cast<double>(g.num_proj) * 1e-9 *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BackprojStreaming)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

/// A benchmark workload's slab (bench/e2e/workloads.cpp): its input, its
/// recon's batch count Nc and decomposition.  The kernel runs on the
/// middle slab of rank 0's share, over that rank's views.
struct SlabCase {
    const char* dataset;
    double scale;
    index_t volume;
    index_t batches;
    GroupLayout layout;
};

/// The kernel at the workloads' slab sizes: fdk-tomo29's (96 x 96 x 12
/// over 225 views, a texture that outgrows L2, lanes mostly in texel
/// windows), a dist-bumblebee-2x2 rank's, the serve-mix jobs' 48^3 and
/// 64^3, and fdk-bean-q8's coffee_bean/16 -> 48^3, whose vectors mostly
/// gather.  The Arg(16)/Arg(32) cases above never leave L2.
void BM_BackprojStreamingSlab(benchmark::State& state, SlabCase c)
{
    const CbctGeometry g =
        io::dataset_by_name(c.dataset).scaled(c.scale).with_volume(c.volume).geometry;
    const Range slices = c.layout.slices_of_group(GroupId{0}, g.vol.z);
    const Range views = c.layout.views_of_rank(RankId{0}, g.num_proj);
    const auto plans = plan_slabs(g, slices, (slices.length() + c.batches - 1) / c.batches);
    const SlabPlan& pl = plans[plans.size() / 2];
    const ProjectionStack p = random_stack(g);
    sim::Device dev(1u << 30);
    sim::Texture3 tex(dev, g.nu, views.length(), pl.rows.length());
    std::vector<float> plane(static_cast<std::size_t>(g.nu * views.length()));
    for (index_t v = pl.rows.lo; v < pl.rows.hi; ++v) {
        for (index_t s = views.lo; s < views.hi; ++s) {
            const auto row = p.row(s, v);
            std::copy(row.begin(), row.end(),
                      plane.begin() + static_cast<std::ptrdiff_t>((s - views.lo) * g.nu));
        }
        tex.copy_planes(plane, v - pl.rows.lo, 1);
    }
    const Dim3 slab{g.vol.x, g.vol.y, pl.slab.length()};
    Volume vol(slab);
    const auto mats = projection_matrices(g);
    const backproj::MatrixPack pack(std::span<const Mat34>(mats).subspan(
        static_cast<std::size_t>(views.lo), static_cast<std::size_t>(views.length())));
    const backproj::StreamOffsets off{pl.slab.lo, pl.rows.lo};
    for (auto _ : state) {
        backproj::backproject_streaming(tex, pack, vol, off, g.nu, g.nv);
        benchmark::DoNotOptimize(vol.span().data());
        benchmark::ClobberMemory();
    }
    state.counters["GUPS"] = benchmark::Counter(
        static_cast<double>(slab.count()) * static_cast<double>(views.length()) * 1e-9 *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_BackprojStreamingSlab, fdk_tomo29,
                  SlabCase{"tomo_00029", 8.0, 96, 8, GroupLayout{1, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BackprojStreamingSlab, dist_bumblebee_2x2,
                  SlabCase{"bumblebee", 16.0, 96, 8, GroupLayout{2, 2}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BackprojStreamingSlab, serve_48,
                  SlabCase{"tomo_00030", 8.0, 48, 4, GroupLayout{1, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BackprojStreamingSlab, serve_64,
                  SlabCase{"tomo_00030", 8.0, 64, 8, GroupLayout{1, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BackprojStreamingSlab, fdk_bean_q8,
                  SlabCase{"coffee_bean", 16.0, 48, 16, GroupLayout{1, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_BackprojStreamingScalar(benchmark::State& state)
{
    const CbctGeometry g = bench_geo(state.range(0));
    const ProjectionStack p = random_stack(g);
    const auto mats = projection_matrices(g);
    const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
    sim::Device dev(1u << 30);
    sim::Texture3 tex(dev, g.nu, g.num_proj, g.nv);
    std::vector<float> plane(static_cast<std::size_t>(g.nu * g.num_proj));
    for (index_t v = 0; v < g.nv; ++v) {
        for (index_t s = 0; s < g.num_proj; ++s) {
            const auto row = p.row(s, v);
            std::copy(row.begin(), row.end(),
                      plane.begin() + static_cast<std::ptrdiff_t>(s * g.nu));
        }
        tex.copy_planes(plane, v, 1);
    }
    Volume vol(g.vol);
    for (auto _ : state) {
        backproj::backproject_streaming_scalar(tex, pack, vol, backproj::StreamOffsets{0, 0},
                                               g.nu, g.nv);
        benchmark::DoNotOptimize(vol.span().data());
    }
    state.counters["GUPS"] = benchmark::Counter(
        static_cast<double>(g.vol.count()) * static_cast<double>(g.num_proj) * 1e-9 *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BackprojStreamingScalar)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_BackprojReference(benchmark::State& state)
{
    const CbctGeometry g = bench_geo(state.range(0));
    const ProjectionStack p = random_stack(g);
    const auto mats = projection_matrices(g);
    Volume vol(g.vol);
    for (auto _ : state) {
        vol.fill(0.0f);
        backproj::backproject_reference(p, mats, g, vol);
        benchmark::DoNotOptimize(vol.span().data());
    }
    state.counters["GUPS"] = benchmark::Counter(
        static_cast<double>(g.vol.count()) * static_cast<double>(g.num_proj) * 1e-9 *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BackprojReference)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_BackprojRtkStyle(benchmark::State& state)
{
    const CbctGeometry g = bench_geo(state.range(0));
    const ProjectionStack p = random_stack(g);
    const auto mats = projection_matrices(g);
    Volume vol(g.vol);
    for (auto _ : state) {
        sim::Device dev(1u << 30);
        backproj::backproject_rtk_style(dev, p, mats, g, vol, 16);
        benchmark::DoNotOptimize(vol.span().data());
    }
    state.counters["GUPS"] = benchmark::Counter(
        static_cast<double>(g.vol.count()) * static_cast<double>(g.num_proj) * 1e-9 *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BackprojRtkStyle)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_FilterEngine(benchmark::State& state)
{
    const CbctGeometry g = bench_geo(64);
    const filter::FilterEngine eng(g);
    ProjectionStack stack(4, g.nv, g.nu, 1.0f);
    for (auto _ : state) {
        eng.apply(stack);
        benchmark::DoNotOptimize(stack.span().data());
    }
    state.counters["Melem/s"] = benchmark::Counter(
        static_cast<double>(stack.count()) * 1e-6 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FilterEngine)->Unit(benchmark::kMillisecond);

void BM_Fft(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::vector<std::complex<double>> data(n, {1.0, 0.5});
    for (auto _ : state) {
        fft::transform(data, false);
        fft::transform(data, true);
        benchmark::DoNotOptimize(data.data());
    }
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FftF32(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const fft::Plan& plan = fft::plan_for(static_cast<index_t>(n));
    std::vector<std::complex<float>> data(n, {1.0f, 0.5f});
    for (auto _ : state) {
        fft::transform_f(data, plan, false);
        fft::transform_f(data, plan, true);
        benchmark::DoNotOptimize(data.data());
    }
}
BENCHMARK(BM_FftF32)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ComputeAb(benchmark::State& state)
{
    const CbctGeometry g = bench_geo(64);
    index_t acc = 0;
    for (auto _ : state) {
        for (index_t k = 0; k + 8 <= g.vol.z; k += 8) acc += compute_ab(g, Range{k, k + 8}).length();
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_ComputeAb);

void BM_SegmentedReduce(benchmark::State& state)
{
    const index_t ranks = state.range(0);
    const std::size_t elems = 1 << 16;
    for (auto _ : state) {
        minimpi::run(ranks, [&](minimpi::Communicator& c) {
            std::vector<float> send(elems, 1.0f);
            std::vector<float> recv(c.rank() == 0 ? elems : 0);
            c.reduce_sum(send, recv, 0);
        });
    }
    state.counters["MiB/s"] = benchmark::Counter(
        static_cast<double>(elems * sizeof(float)) / (1024.0 * 1024.0) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SegmentedReduce)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_PhantomForwardProject(benchmark::State& state)
{
    const CbctGeometry g = bench_geo(32);
    const auto head = phantom::shepp_logan_3d(g.dx * 13.0);
    for (auto _ : state) {
        const ProjectionStack p =
            phantom::forward_project(head, g, Range{0, 4}, Range{0, g.nv});
        benchmark::DoNotOptimize(p.span().data());
    }
}
BENCHMARK(BM_PhantomForwardProject)->Unit(benchmark::kMillisecond);

/// A serve job's projections: tomo_00030/8 -> 48^3 as the daemon receives
/// it (90 views on 56 x 84 pixels, no calibration offsets) through the
/// engine's source, Shepp-Logan (arg 0) or a porous bean with arg pores.
void BM_PhantomForwardProjectServeJob(benchmark::State& state)
{
    CbctGeometry g = io::dataset_by_name("tomo_00030").scaled(8).with_volume(48).geometry;
    g.sigma_u = g.sigma_v = g.sigma_cor = 0.0;
    const double radius = 0.45 * static_cast<double>(g.vol.x) * g.dx;
    const auto e = state.range(0) == 0 ? phantom::shepp_logan_3d(radius)
                                       : phantom::porous_bean(radius, state.range(0), 1);
    for (auto _ : state) {
        const ProjectionStack p = phantom::forward_project(e, g);
        benchmark::DoNotOptimize(p.span().data());
    }
    state.counters["rays/s"] = benchmark::Counter(
        static_cast<double>(g.num_proj * g.nv * g.nu) * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PhantomForwardProjectServeJob)->Arg(0)->Arg(8)->Unit(benchmark::kMillisecond);

// ---- BENCH_pr4.json: scalar-vs-vectorised trajectory ----------------------

/// Best-of-`reps` wall time of fn() in seconds (first call should be a
/// separate warm-up so pools and plan caches are populated).
template <typename F>
double seconds_best_of(int reps, F&& fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

void emit_bench_json(const std::string& path)
{
    // Back-projection: retained Listing-1 scalar loop vs the vectorised
    // default, same MatrixPack and texture.
    {
        const CbctGeometry g = bench_geo(32);
        const ProjectionStack p = random_stack(g);
        const auto mats = projection_matrices(g);
        const backproj::MatrixPack pack{std::span<const Mat34>(mats)};
        sim::Device dev(1u << 30);
        sim::Texture3 tex(dev, g.nu, g.num_proj, g.nv);
        std::vector<float> plane(static_cast<std::size_t>(g.nu * g.num_proj));
        for (index_t v = 0; v < g.nv; ++v) {
            for (index_t s = 0; s < g.num_proj; ++s) {
                const auto row = p.row(s, v);
                std::copy(row.begin(), row.end(),
                          plane.begin() + static_cast<std::ptrdiff_t>(s * g.nu));
            }
            tex.copy_planes(plane, v, 1);
        }
        Volume vol(g.vol);
        const backproj::StreamOffsets off{0, 0};
        const double updates =
            static_cast<double>(g.vol.count()) * static_cast<double>(g.num_proj);

        backproj::backproject_streaming_scalar(tex, pack, vol, off, g.nu, g.nv);
        const double t_scalar = seconds_best_of(3, [&] {
            backproj::backproject_streaming_scalar(tex, pack, vol, off, g.nu, g.nv);
        });
        backproj::backproject_streaming(tex, pack, vol, off, g.nu, g.nv);
        const std::uint64_t heap0 = scratch::heap_events();
        const double t_simd = seconds_best_of(3, [&] {
            backproj::backproject_streaming(tex, pack, vol, off, g.nu, g.nv);
        });
        const std::uint64_t heap_delta = scratch::heap_events() - heap0;

        bench::write_json_section(
            path, "backproj",
            {{"simd_backend", json_quote(simd::backend_name())},
             {"simd_lanes", json_number(static_cast<double>(simd::kLanes))},
             {"updates_per_s_scalar", json_number(updates / t_scalar)},
             {"updates_per_s_simd", json_number(updates / t_simd)},
             {"views_per_s_simd", json_number(static_cast<double>(g.num_proj) / t_simd)},
             {"speedup", json_number(t_scalar / t_simd)},
             {"warm_heap_events", json_number(static_cast<double>(heap_delta))}},
            /*fresh=*/true);
    }

    // Ramp filtering: per-row double-precision reference vs the fp32
    // lane-batched apply(), the worker pool on both sides so the speedup
    // isolates fp32 + batching + plan cache + scratch pooling.
    {
        const CbctGeometry g = bench_geo(64);
        const filter::FilterEngine eng(g);
        ProjectionStack stack(8, g.nv, g.nu, 1.0f);
        const double rows =
            static_cast<double>(stack.views()) * static_cast<double>(stack.rows());

        const auto run_reference = [&] {
            for (float& v : stack.span()) v = 1.0f;
            const index_t nv = stack.rows();
            parallel::parallel_for(stack.views() * nv, 1, [&](index_t sv, std::size_t) {
                eng.apply_row_reference(stack.row(sv / nv, sv % nv), sv % nv);
            });
        };
        run_reference();
        const double t_ref = seconds_best_of(3, run_reference);

        const auto run_fp32 = [&] {
            for (float& v : stack.span()) v = 1.0f;
            eng.apply(stack);
        };
        run_fp32();
        const std::uint64_t heap0 = scratch::heap_events();
        const double t_f32 = seconds_best_of(3, run_fp32);
        const std::uint64_t heap_delta = scratch::heap_events() - heap0;

        bench::write_json_section(
            path, "filter",
            {{"padded_len", json_number(static_cast<double>(eng.padded_len()))},
             {"rows_per_s_reference", json_number(rows / t_ref)},
             {"rows_per_s_fp32", json_number(rows / t_f32)},
             // Element rate in TH_flt's units, so the autotune calibrator
             // can seed the model straight from this file.
             {"elems_per_s_fp32", json_number(static_cast<double>(stack.count()) / t_f32)},
             {"speedup", json_number(t_ref / t_f32)},
             {"warm_heap_events", json_number(static_cast<double>(heap_delta))}});
    }

    // Raw FFT round-trip cost per transform (context for the filter row
    // numbers): seed per-call-twiddle reference vs plan-cached double vs
    // plan-cached fp32 vs the lane-batched fp32 transform the filter runs
    // (per lane, so next to planned_f32 it reads as the batching gain).
    {
        const index_t n = 1024;
        const fft::Plan& plan = fft::plan_for(n);
        std::vector<std::complex<double>> d(static_cast<std::size_t>(n), {1.0, 0.5});
        std::vector<std::complex<float>> f(static_cast<std::size_t>(n), {1.0f, 0.5f});
        std::vector<float> batch(2 * fft::kBatch * static_cast<std::size_t>(n), 0.0f);
        const int iters = 200;
        const auto per = [&](double secs) { return secs / (2.0 * iters); };

        const double t_refr = seconds_best_of(3, [&] {
            for (int i = 0; i < iters; ++i) {
                fft::transform_reference(d, false);
                fft::transform_reference(d, true);
            }
        });
        const double t_plan = seconds_best_of(3, [&] {
            for (int i = 0; i < iters; ++i) {
                fft::transform(d, false);
                fft::transform(d, true);
            }
        });
        const double t_f32 = seconds_best_of(3, [&] {
            for (int i = 0; i < iters; ++i) {
                fft::transform_f(f, plan, false);
                fft::transform_f(f, plan, true);
            }
        });
        // The batched inverse is unscaled, so a repeated round trip of
        // non-zero data would overflow; zeros keep every lane finite.
        const double t_batch = seconds_best_of(3, [&] {
            for (int i = 0; i < iters; ++i) {
                fft::transform_batch_f(batch, plan, false, fft::kBatch);
                fft::transform_batch_f(batch, plan, true, fft::kBatch);
            }
        });
        bench::write_json_section(
            path, "fft",
            {{"n", json_number(static_cast<double>(n))},
             {"us_per_transform_reference", json_number(per(t_refr) * 1e6)},
             {"us_per_transform_planned_f64", json_number(per(t_plan) * 1e6)},
             {"us_per_transform_planned_f32", json_number(per(t_f32) * 1e6)},
             {"us_per_transform_batched_f32",
              json_number(per(t_batch) / static_cast<double>(fft::kBatch) * 1e6)},
             {"speedup_f32_vs_reference", json_number(t_refr / t_f32)}});
    }

    // Integrity layer (DESIGN.md §3f): raw xxh64 throughput (fast vs the
    // spec-transcribed reference) and the end-to-end clean-path cost of
    // --integrity on a single-rank reconstruction.  The design target is
    // overhead_percent < 3.  One ~8 ms run moves by more than that from
    // run to run, so the row is the median over alternating off/on pairs
    // of each pair's ratio, and the bench_gate cap above it only catches
    // digesting becoming a first-order cost.
    {
        std::vector<float> buf(static_cast<std::size_t>(16) << 20 >> 2);  // 16 MiB
        std::mt19937 rng(11);
        std::uniform_real_distribution<float> u(0.0f, 1.0f);
        for (float& v : buf) v = u(rng);
        const auto bytes = std::as_bytes(std::span<const float>(buf));
        const double gib = static_cast<double>(bytes.size()) / (1024.0 * 1024.0 * 1024.0);

        volatile std::uint64_t sink = 0;
        const double t_fast =
            seconds_best_of(5, [&] { sink = integrity::digest(bytes); });
        const double t_refr =
            seconds_best_of(3, [&] { sink = integrity::digest_reference(bytes); });
        (void)sink;

        const CbctGeometry g = bench_geo(32);
        const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
        const auto run_fdk = [&] {
            recon::PhantomSource src(ph, g);
            recon::RankConfig cfg;
            cfg.geometry = g;
            cfg.batches = 8;
            benchmark::DoNotOptimize(recon::reconstruct_fdk(cfg, src).volume.span().data());
        };
        run_fdk();
        const auto timed_fdk = [&](bool enabled) {
            integrity::ScopedEnable scope(enabled);
            return seconds_best_of(1, run_fdk);
        };
        constexpr int kPairs = 41;
        std::vector<double> off, on, overhead;
        for (int i = 0; i < kPairs; ++i) {
            // Alternate which side runs first, so a drift favours neither.
            const bool on_first = i % 2 == 1;
            const double first = timed_fdk(on_first);
            const double second = timed_fdk(!on_first);
            off.push_back(on_first ? second : first);
            on.push_back(on_first ? first : second);
            overhead.push_back((on.back() / off.back() - 1.0) * 100.0);
        }
        const auto median = [](std::vector<double> v) {
            std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                             v.end());
            return v[v.size() / 2];
        };

        bench::write_json_section(
            path, "integrity",
            {{"digest_gib_per_s", json_number(gib / t_fast)},
             {"digest_reference_gib_per_s", json_number(gib / t_refr)},
             {"fdk_seconds_integrity_off", json_number(median(off))},
             {"fdk_seconds_integrity_on", json_number(median(on))},
             {"overhead_percent", json_number(median(overhead))}});
    }

    // Flight recorder (DESIGN.md §3g): the warm per-span cost of the
    // always-on ring, and the derived clean-path overhead on a
    // single-rank FDK run (spans recorded x per-span cost / wall).  The
    // acceptance gate is overhead_percent < 2 — always-on must be free.
    {
        constexpr int kProbeSpans = 1 << 20;
        const auto spin = [&] {
            for (int i = 0; i < kProbeSpans; ++i)
                telemetry::ScopedTrace span(names::kCatBench, names::kSpanBenchProbe);
        };
        spin();  // warm: ring acquired, slots resident
        const std::uint64_t e0 = scratch::heap_events();
        const double t_span = seconds_best_of(3, spin) / kProbeSpans;
        const std::uint64_t warm_heap = scratch::heap_events() - e0;

        const CbctGeometry g = bench_geo(32);
        const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
        const auto run_fdk = [&] {
            recon::PhantomSource src(ph, g);
            recon::RankConfig cfg;
            cfg.geometry = g;
            cfg.batches = 8;
            benchmark::DoNotOptimize(recon::reconstruct_fdk(cfg, src).volume.span().data());
        };
        run_fdk();
        // One rep, so the span-count delta covers exactly the timed run.
        const std::uint64_t r0 = telemetry::flight::total_records();
        const double t_fdk = seconds_best_of(1, run_fdk);
        const double fdk_spans =
            static_cast<double>(telemetry::flight::total_records() - r0);
        const double overhead = 100.0 * fdk_spans * t_span / t_fdk;
        require(overhead < 2.0, "flight recorder overhead exceeds 2% of FDK wall time");

        bench::write_json_section(
            path, "flight",
            {{"ns_per_span", json_number(t_span * 1e9)},
             {"spans_per_s", json_number(1.0 / t_span)},
             {"warm_heap_events", json_number(static_cast<double>(warm_heap))},
             {"fdk_spans", json_number(fdk_spans)},
             {"overhead_percent", json_number(overhead)}});
    }

    // Bytes moved by the simulated device over a fixed single-rank run —
    // fully determined by geometry and batching, so the trend gate pins
    // them exactly: any drift means the pipeline transfers different data.
    // The q8 twin (band codec, DESIGN.md §3j) measures the
    // compressed wire volume over the same run, the ratio against raw,
    // and the quantisation quality against the raw volume.
    {
        const CbctGeometry g = bench_geo(32);
        const auto ph = phantom::shepp_logan_3d(g.dx * 10.0);
        auto& reg = telemetry::registry();
        const auto run_fdk = [&](io::BandCodec codec) {
            recon::PhantomSource src(ph, g);
            recon::RankConfig cfg;
            cfg.geometry = g;
            cfg.batches = 8;
            cfg.band_codec = codec;
            return recon::reconstruct_fdk(cfg, src).volume;
        };
        const std::uint64_t h0 = reg.counter(names::kMetricSimH2dBytes).value();
        const std::uint64_t d0 = reg.counter(names::kMetricSimD2hBytes).value();
        const Volume raw = run_fdk(io::BandCodec::Raw);
        const std::uint64_t h2d = reg.counter(names::kMetricSimH2dBytes).value() - h0;
        const std::uint64_t d2h = reg.counter(names::kMetricSimD2hBytes).value() - d0;
        const std::uint64_t hq0 = reg.counter(names::kMetricSimH2dBytes).value();
        const Volume q8 = run_fdk(io::BandCodec::Q8);
        const std::uint64_t h2d_q8 = reg.counter(names::kMetricSimH2dBytes).value() - hq0;

        // Codec-level round-trip error against the documented bound, on a
        // deterministic random band.
        ProjectionStack band(4, Range{3, 19}, g.nu);
        std::mt19937 rng(23);
        std::uniform_real_distribution<float> u(-1.0f, 2.0f);
        for (float& v : band.span()) v = u(rng);
        const io::EncodedBand enc = io::encode_band(band);
        const ProjectionStack dec = io::decode_band(enc);
        float max_err = 0.0f;
        const auto src_span = band.span();
        const auto dec_span = dec.span();
        for (std::size_t i = 0; i < src_span.size(); ++i)
            max_err = std::max(max_err, std::abs(src_span[i] - dec_span[i]));

        bench::write_json_section(
            path, "transport",
            {{"h2d_bytes", json_number(static_cast<double>(h2d))},
             {"d2h_bytes", json_number(static_cast<double>(d2h))},
             {"h2d_bytes_q8", json_number(static_cast<double>(h2d_q8))},
             {"q8_bytes_over_raw",
              json_number(static_cast<double>(h2d_q8) / static_cast<double>(h2d))},
             {"q8_psnr_db", json_number(recon::psnr(raw, q8))},
             {"q8_max_err_vs_bound",
              json_number(static_cast<double>(max_err) /
                              static_cast<double>(io::q8_error_bound(enc)))}});
    }

    // Autotune (DESIGN.md §3j): the planner's pick for a Table-2-shaped
    // job on the fixed ABCI V100 machine model, against the fixed
    // seed-era decomposition it must never lose to.  Everything here is
    // pure arithmetic on a pinned machine, so the gate holds the picks
    // exactly and caps planned/fixed at 1.
    {
        const perfmodel::MachineParams m = perfmodel::MachineParams::abci_v100();
        autotune::JobShape job;
        job.geometry = bench_geo(64);
        job.geometry.num_proj = 256;
        job.rank_budget = 16;
        job.device_capacity = 64u << 20;
        const autotune::Candidate fixed{GroupLayout{2, 2}, 8, 2};
        const autotune::Plan plan = autotune::plan_job(job, m, {fixed});
        const double fixed_runtime = perfmodel::simulate(
            [&] {
                perfmodel::RunConfig rc;
                rc.geometry = job.geometry;
                rc.layout = fixed.layout;
                rc.batches = fixed.batches;
                return rc;
            }(),
            m, fixed.queue_depth).runtime;

        bench::write_json_section(
            path, "autotune",
            {{"picked_ng", json_number(static_cast<double>(plan.layout.num_groups))},
             {"picked_nr", json_number(static_cast<double>(plan.layout.ranks_per_group))},
             {"picked_nc", json_number(static_cast<double>(plan.batches))},
             {"picked_queue_depth", json_number(static_cast<double>(plan.queue_depth))},
             {"candidates_scored", json_number(static_cast<double>(plan.candidates_scored))},
             {"planned_runtime_seconds", json_number(plan.predicted_runtime_s)},
             {"fixed_runtime_seconds", json_number(fixed_runtime)},
             {"planned_over_fixed_runtime",
              json_number(plan.predicted_runtime_s / fixed_runtime)},
             {"jobs_per_hour", json_number(3600.0 / plan.predicted_runtime_s)}});
    }
}

}  // namespace

int main(int argc, char** argv)
{
    const std::string out = bench::take_out_path(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (out.empty()) return 0;
    emit_bench_json(out);
    std::printf("%s written (backproj / filter / fft / integrity / flight / "
                "transport / autotune sections)\n",
                out.c_str());
    return 0;
}
