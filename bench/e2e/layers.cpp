#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "backproj/kernel.hpp"
#include "core/names.hpp"
#include "core/preprocess.hpp"
#include "filter/parker.hpp"
#include "filter/ramp.hpp"
#include "integrity/hash.hpp"
#include "io/band_codec.hpp"
#include "io/raw_io.hpp"
#include "minimpi/comm.hpp"
#include "perfmodel/model.hpp"
#include "recon/source.hpp"
#include "serve/admission.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "sim/device.hpp"
#include "telemetry/trace.hpp"

namespace xct::bench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = kMiB * 1024.0;

/// Median wall seconds of `reps` calls of `f`, each call inside a span.
template <typename F>
double timed(SpanLog& spans, const char* name, index_t reps, F&& f)
{
    std::vector<double> t;
    for (index_t i = 0; i < reps; ++i) {
        SpanScope s(spans, name);
        const double t0 = now_s();
        f();
        t.push_back(now_s() - t0);
    }
    return median(t);
}

double max_abs_diff(std::span<const float> a, std::span<const float> b)
{
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
    return m;
}

}  // namespace

void probe_layers(const Workload& w, const ReconInput& in, std::uint64_t seed,
                  const std::filesystem::path& scratch, index_t reps, SpanLog& spans,
                  RunResult& r)
{
    SpanScope layers_span(spans, "layers");
    const CbctGeometry& g = in.geom.geometry;
    const auto su = [](index_t n) { return static_cast<std::size_t>(n); };

    // ---- filter: Eq. 1 (counts) and Parker (short scans) are the
    // pipeline's pre-filter steps; the timed call is FilterEngine::apply.
    ProjectionStack pre = in.raw;
    if (in.geom.raw_counts) beer_law(pre, in.geom.beer);
    if (g.short_scan()) filter::ParkerWeights(g, Range{0, g.num_proj}).apply(pre);
    const filter::FilterEngine engine(g, filter::Window::RamLak);
    ProjectionStack filtered;
    std::vector<double> t_filter;
    for (index_t i = 0; i < reps; ++i) {
        filtered = pre;  // apply() works in place; the copy is not timed
        SpanScope s(spans, "filter.FilterEngine::apply");
        const double t0 = now_s();
        engine.apply(filtered);
        t_filter.push_back(now_s() - t0);
    }
    r.set("filter.rows_per_s", static_cast<double>(g.num_proj * g.nv) / median(t_filter),
          "rows/s", t_filter.size());

    // ---- the middle slab of rank 0: its view share and detector-row band,
    // the unit every transport and kernel layer moves.  Not slab 0: with a
    // cubic volume over a wide detector, the outer slabs can lie outside
    // the vertical field of view, where the kernel does no work.
    const Range views = w.layout.views_of_rank(RankId{0}, g.num_proj);
    const Range slices = w.layout.slices_of_group(GroupId{0}, g.vol.z);
    const index_t nb = (slices.length() + w.batches - 1) / w.batches;
    const std::vector<SlabPlan> plans = plan_slabs(g, slices, nb);
    const SlabPlan mid = plans[plans.size() / 2];
    ProjectionStack band(views.length(), mid.rows, g.nu);
    for (index_t s = 0; s < views.length(); ++s)
        for (index_t v = mid.rows.lo; v < mid.rows.hi; ++v)
            std::copy_n(filtered.row(views.lo + s, v).begin(), g.nu, band.row(s, v).begin());
    const double band_mib = static_cast<double>(band.count()) * sizeof(float) / kMiB;

    // ---- band_codec (io): q8 encode / decode of the band.
    io::EncodedBand enc;
    ProjectionStack dec;
    const double t_enc =
        timed(spans, "band_codec.encode_band", reps, [&] { enc = io::encode_band(band); });
    const double t_dec =
        timed(spans, "band_codec.decode_band", reps, [&] { dec = io::decode_band(enc); });
    r.set("band_codec.encode_mib_per_s", band_mib / t_enc, "MiB/s", su(reps));
    r.set("band_codec.decode_mib_per_s", band_mib / t_dec, "MiB/s", su(reps));
    r.set("band_codec.bytes_over_raw",
          static_cast<double>(enc.wire_bytes()) / static_cast<double>(enc.raw_bytes()), "ratio");
    r.tally(max_abs_diff(dec.span(), band.span()) <= 1.001 * io::q8_error_bound(enc),
            w.name + ": q8 round trip exceeds its error bound");

    // ---- sim: host->device copy of the band in upload order
    // ([row][view][u], the circular texture's layout).
    std::vector<float> upload(su(band.count()));
    for (index_t v = mid.rows.lo; v < mid.rows.hi; ++v)
        for (index_t s = 0; s < views.length(); ++s)
            std::copy_n(band.row(s, v).begin(), g.nu,
                        upload.begin() + static_cast<std::ptrdiff_t>(
                                             ((v - mid.rows.lo) * views.length() + s) * g.nu));
    sim::Device dev(std::size_t{4} << 30);
    sim::Texture3 tex(dev, g.nu, views.length(), mid.rows.length());
    const double t_h2d = timed(spans, "sim.Texture3::copy_planes", reps,
                               [&] { tex.copy_planes(upload, 0, mid.rows.length()); });
    r.set("sim.h2d_gib_per_s", static_cast<double>(upload.size()) * sizeof(float) / kGiB / t_h2d,
          "GiB/s", su(reps));

    // ---- backproj: the streaming kernel over the slab.
    const std::vector<Mat34> all_mats = projection_matrices(g);
    const backproj::MatrixPack pack(std::span<const Mat34>(all_mats).subspan(
        su(views.lo), su(views.length())));
    Volume slab(Dim3{g.vol.x, g.vol.y, mid.slab.length()});
    const double t_bp = timed(spans, "backproj.backproject_streaming", reps, [&] {
        slab.fill(0.0f);
        backproj::backproject_streaming(tex, pack, slab,
                                        backproj::StreamOffsets{mid.slab.lo, mid.rows.lo}, g.nu,
                                        g.nv);
    });
    r.set("backproj.gups",
          static_cast<double>(slab.count()) * static_cast<double>(views.length()) / t_bp / 1e9,
          "GUPS", su(reps));
    if (w.layout.ranks_per_group == 1) {
        // All views: the slab is the finished reconstruction of its slices.
        const std::span<const float> ref = in.oracle.span().subspan(
            su(mid.slab.lo * g.vol.x * g.vol.y), su(slab.count()));
        const double err = max_abs_rel_err(slab.span(), ref);
        r.tally(err <= 1e-2, w.name + ": streaming kernel slab disagrees with the oracle (" +
                                 std::to_string(err) + " of its peak)");
    }

    // ---- minimpi: segmented reduce of one slab across 4 rank threads.
    {
        SpanScope s(spans, "minimpi.reduce_sum");
        const std::size_t n = su(slab.count());
        std::vector<double> t;
        bool sum_ok = true;
        minimpi::run(4, [&](minimpi::Communicator& comm) {
            const std::vector<float> send(n, static_cast<float>(comm.rank() + 1));
            std::vector<float> recv(comm.rank() == 0 ? n : 0);
            for (index_t i = 0; i < reps; ++i) {
                comm.barrier();
                const double t0 = now_s();
                comm.reduce_sum(send, recv, 0);
                if (comm.rank() == 0) t.push_back(now_s() - t0);
            }
            if (comm.rank() == 0) sum_ok = recv.front() == 10.0f && recv.back() == 10.0f;
        });
        r.set("minimpi.reduce_s", median(t), "s", t.size());
        r.set("minimpi.reduce_gib_per_s", static_cast<double>(n) * sizeof(float) / kGiB / median(t),
              "GiB/s", t.size());
        r.tally(sum_ok, w.name + ": minimpi reduce_sum produced a wrong sum");
    }

    // ---- io: the stack read every xct_recon rep performs, and the
    // atomic volume write it ends with.
    const double stack_bytes = static_cast<double>(std::filesystem::file_size(in.stack_path));
    const double t_read =
        timed(spans, "io.read_stack", reps, [&] { (void)io::read_stack(in.stack_path); });
    r.set("io.read_stack_gib_per_s", stack_bytes / kGiB / t_read, "GiB/s", su(reps));
    r.set("io.write_volume_s", timed(spans, "io.write_volume", reps, [&] {
              io::write_volume(scratch / "probe.xvol", in.oracle);
          }), "s", su(reps));

    // ---- phantom: the analytic source's load (serve's load stage, and
    // xct_project's core), first 8 views at full detector height.
    {
        recon::PhantomSource src(workload_phantom(g, seed), g);
        const index_t nviews = std::min<index_t>(8, g.num_proj);
        const double t = timed(spans, "phantom.PhantomSource::load", reps,
                               [&] { (void)src.load(Range{0, nviews}, Range{0, g.nv}); });
        r.set("phantom.rays_per_s", static_cast<double>(nviews * g.nu * g.nv) / t, "rays/s",
              su(reps));
    }

    // ---- integrity: XXH64 of an output volume, 10 digests per sample.
    {
        const std::span<const std::byte> bytes = std::as_bytes(in.oracle.span());
        integrity::digest_t d0 = integrity::digest(bytes);
        bool stable = true;
        const double t = timed(spans, "integrity.digest", reps, [&] {
            for (index_t i = 0; i < 10; ++i) stable = stable && integrity::digest(bytes) == d0;
        });
        r.set("integrity.digest_gib_per_s", 10.0 * static_cast<double>(bytes.size()) / kGiB / t,
              "GiB/s", su(reps));
        r.tally(stable, w.name + ": integrity digest is not deterministic");
    }

    // ---- flight (telemetry): cost of one always-on ScopedTrace span.
    {
        constexpr index_t kSpans = 200000;
        const double t = timed(spans, "flight.ScopedTrace", reps, [] {
            for (index_t i = 0; i < kSpans; ++i)
                telemetry::ScopedTrace probe(names::kCatBench, names::kSpanBenchProbe);
        });
        r.set("flight.ns_per_span", t / static_cast<double>(kSpans) * 1e9, "ns", su(reps));
    }

    // ---- serve: admission pricing of this geometry as a job, and one
    // fsync'd journal append.
    {
        serve::JobSpec spec;
        spec.geometry = g;
        spec.batches = w.batches;
        spec.device_capacity = std::size_t{256} << 20;
        const perfmodel::MachineParams machine{};
        bool admitted = true;
        const double t_price = timed(spans, "serve.price", 10 * reps, [&] {
            admitted = admitted && serve::price(spec, machine).admitted;
        });
        r.set("serve.price_us", t_price * 1e6, "us", su(10 * reps));
        r.tally(admitted, w.name + ": admission rejected the workload geometry");

        const std::filesystem::path jpath = scratch / "probe.journal";
        std::filesystem::remove(jpath);
        serve::Journal journal(jpath, true);
        const std::string payload = serve::encode_spec(spec);
        serve::JobId id = 0;
        const double t_append = timed(spans, "serve.Journal::append", 10 * reps, [&] {
            journal.append(serve::RecordType::Submit, ++id, payload);
        });
        r.set("serve.journal_append_us", t_append * 1e6, "us", su(10 * reps));
    }
}

std::uint64_t nonblank_lines(const std::filesystem::path& dir)
{
    std::uint64_t n = 0;
    for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
        if (!e.is_regular_file()) continue;
        std::ifstream f(e.path());
        std::string line;
        while (std::getline(f, line))
            if (line.find_first_not_of(" \t\r\f\v") != std::string::npos) ++n;
    }
    return n;
}

}  // namespace xct::bench
