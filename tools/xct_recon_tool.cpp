// xct_recon — reconstruct a volume from a projection stack on disk.
//
// Reads `<input>` and its `<input>.geom` sidecar, runs the FDK pipeline
// (single rank or a distributed Ng x Nr layout with segmented reduction),
// and writes the volume plus an optional preview slice.
//
//   xct_recon --input proj.xstk --output vol.xvol
//   xct_recon --input proj.xstk --groups 2 --ranks 4 --window hann
//             --device-mib 64 --slice-pgm axial.pgm
//
// Observability: `--trace out.json` records every subsystem's spans
// (pipeline stages, device transfers, minimpi collectives, PFS I/O) into
// one Chrome trace-event file — open it at ui.perfetto.dev — and
// `--metrics out.csv` dumps the telemetry metrics registry, with the
// run's own minor faults and peak RSS (`process.*`).
// `--report out.json` emits the perfmodel-anchored run report (per-stage
// and per-batch measured vs Eq. 13-17 predictions, per-rank efficiency,
// straggler flags, fleet percentiles).  --trace and the report's
// per-batch rows read the always-on flight recorder over the run's time
// window; a watchdog trip, a detected integrity fault or a fatal signal
// dumps its rings as a post-mortem Perfetto trace into `--flight-dir`
// (default: alongside --output).
//
// Resilience: `--faults "<site>[:k=v,...][;...]"` installs a deterministic
// fault plan (sites: pfs.load, pfs.store, sim.h2d, sim.d2h, source.load,
// minimpi.<op>, rank.dropout, checkpoint.load, rank.stall; kinds
// throw|corrupt|stall), `--retry N` retries transient faults up to
// N attempts with exponential backoff, `--checkpoint-dir d` enables
// slab-granular checkpoint/restart, and `--degraded` lets the distributed
// run survive rank dropouts with an accuracy-identical degraded reduce.
//
// Integrity (DESIGN.md §3f): `--integrity` turns on end-to-end digest
// verification of every bulk data movement — detected corruption raises a
// transient IntegrityError the --retry machinery repairs — and
// `--watchdog-timeout S` arms a deadline over the load/reduce stages plus
// a startup health probe, converting stalls into recoverable faults.

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "autotune/calibrate.hpp"
#include "autotune/planner.hpp"
#include "cli.hpp"
#include "core/names.hpp"
#include "faults/fault.hpp"
#include "integrity/integrity.hpp"
#include "io/geometry_io.hpp"
#include "io/pfs.hpp"
#include "io/raw_io.hpp"
#include "perfmodel/model.hpp"
#include "recon/distributed.hpp"
#include "recon/fdk.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/report.hpp"

int main(int argc, char** argv)
{
    using namespace xct;
    cli::Args args;
    args.option("input", "projections.xstk", "input stack (expects <input>.geom sidecar)")
        .option("output", "volume.xvol", "output volume path")
        .option("window", "ram-lak", "filter window: ram-lak|shepp-logan|cosine|hamming|hann")
        .option("batches", "8", "batch count Nc (out-of-core granularity)")
        .option("device-mib", "512", "per-rank device memory budget [MiB]")
        .option("groups", "1", "Ng: number of rank groups (output split)")
        .option("ranks", "1", "Nr: ranks per group (view split)")
        .option("band-codec", "raw",
                "differential band wire format: raw (bitwise seed path) | q8")
        .option("queue-depth", "2", "inter-stage FIFO capacity of every rank's pipeline")
        .option("machine", "", "machine-params JSON for --autotune (default: measure locally)")
        .option("machine-out", "", "write the resolved machine params JSON here")
        .option("calibrate-bench", "",
                "seed the local machine params from this BENCH_*.json (micro-kernel rates)")
        .option("slices", "", "ROI: only reconstruct slices a:b (single rank only)")
        .option("slice-pgm", "", "optional PGM preview of the central slice")
        .option("trace", "", "write a Chrome/Perfetto trace-event JSON of the run")
        .option("metrics", "", "write a CSV dump of the telemetry metrics registry")
        .option("report", "", "write the perfmodel-anchored run report JSON")
        .option("flight-dir", "", "post-mortem flight-trace directory (default: output dir)")
        .option("faults", "", "fault plan: <site>[:k=v,...][;<site>...] (keys p,after,count,rank)")
        .option("fault-seed", "1", "seed for probabilistic fault triggers")
        .option("retry", "0", "retry transient faults up to N attempts (0 = fail loudly)")
        .option("checkpoint-dir", "", "slab-granular checkpoint/restart directory")
        .option("watchdog-timeout", "0",
                "stage deadline in seconds (0 = off); overruns become transient faults")
        .flag("integrity", "verify xxh64 digests on every bulk data movement")
        .flag("degraded", "survive rank dropouts via the degraded-mode reduce")
        .flag("autotune",
              "replace --groups/--ranks/--batches/--queue-depth with the model-driven "
              "planner's pick (their product caps the rank budget; the CLI choice is "
              "always scored too)")
        .flag("prefetch", "no-op: band staging always has its own pipeline stage")
        .flag("sequential", "run the pipeline's stages in order on one thread (the serial twin)");
    args.parse(argc, argv, "FDK cone-beam reconstruction");

    if (args.is_set("faults"))
        faults::set_plan(faults::FaultPlan::parse(
            args.get("faults"), static_cast<std::uint64_t>(args.get_int("fault-seed"))));
    integrity::set_enabled(args.get_flag("integrity"));
    const double watchdog_timeout = args.get_double("watchdog-timeout");
    std::optional<faults::RetryPolicy> retry;
    if (args.get_int("retry") > 0) {
        retry.emplace();
        retry->max_attempts = args.get_int("retry");
    }

    // Decomposition knobs; --autotune below may overwrite them with the
    // planner's pick once the geometry is known.
    index_t ng = args.get_int("groups");
    index_t nr = args.get_int("ranks");
    index_t batches = args.get_int("batches");
    index_t queue_depth = args.get_int("queue-depth");
    const io::BandCodec codec = io::band_codec_from_name(args.get("band-codec"));
    const std::size_t device_capacity = static_cast<std::size_t>(args.get_int("device-mib"))
                                        << 20;

    // Arm the always-on flight recorder's post-mortem path before any
    // work: watchdog trips, integrity detections and fatal signals dump
    // the recent past of every thread into flight_<reason>_<n>.json.
    {
        std::filesystem::path flight_dir = args.is_set("flight-dir")
                                               ? std::filesystem::path(args.get("flight-dir"))
                                               : std::filesystem::path(args.get("output"))
                                                     .parent_path();
        if (flight_dir.empty()) flight_dir = ".";
        telemetry::flight::arm_postmortem(flight_dir);
        telemetry::flight::install_signal_handlers();
    }

    // The run's spans are the flight-ring spans that begin from here on:
    // --trace dumps them and the report's per-batch rows read them.
    const double t0 = telemetry::flight::wall_now();
    const auto dump_telemetry = [&args, t0] {
        if (args.is_set("trace")) {
            const std::size_t n = telemetry::flight::dump(args.get("trace"), t0);
            std::printf("wrote %s (%zu spans; open in ui.perfetto.dev)\n",
                        args.get("trace").c_str(), n);
        }
        if (args.is_set("metrics")) {
            telemetry::record_process_memory();
            telemetry::write_metrics_csv(args.get("metrics"),
                                         telemetry::registry().snapshot());
            std::printf("wrote %s\n", args.get("metrics").c_str());
        }
    };

    // Perfmodel-anchored run report: join the measured per-rank timings
    // with the Eq. 13-17 projection, calibrated on this machine.
    const auto write_report = [&](const CbctGeometry& geom, index_t groups, index_t ranks,
                                  const std::vector<telemetry::report::RankTimings>& ts) {
        perfmodel::RunConfig rcfg;
        rcfg.geometry = geom;
        rcfg.layout = GroupLayout{groups, ranks};
        rcfg.batches = batches;
        perfmodel::MachineParams base;
        base.bw_h2d_gbps = 12.0;  // the RankConfig PCIe model defaults
        base.bw_d2h_gbps = 12.0;
        const perfmodel::MachineParams m = perfmodel::measure_local(base);
        const telemetry::report::RunReport rep = telemetry::report::build(rcfg, m, ts);
        telemetry::report::write_json(std::filesystem::path(args.get("report")), rep);
        std::printf("wrote %s (model: %.3f s, binding stage %s; measured %.3f s, "
                    "efficiency %.2f)\n",
                    args.get("report").c_str(), rep.predicted_runtime_s,
                    rep.binding_stage.c_str(), rep.measured_wall_s, rep.efficiency);
    };
    const auto to_timings = [](const recon::RankStats& st, RankId rank, GroupId group,
                               const std::vector<telemetry::flight::FlightEvent>& window) {
        telemetry::report::RankTimings t;
        t.rank = rank;
        t.group = group;
        t.load = st.t_load;
        t.filter = st.t_filter;
        t.prefetch = st.t_prefetch;
        t.bp = st.t_bp;
        t.reduce = st.t_reduce;
        t.store = st.t_store;
        t.wall = st.wall;
        for (const auto& e : window)
            if (e.rank == rank && std::string_view(e.cat) == names::kCatPipeline)
                t.spans.push_back({e.name, e.item, e.end - e.begin});
        return t;
    };

    const std::filesystem::path in = args.get("input");
    const io::GeometryFile gf = io::read_geometry(in.string() + ".geom");
    const CbctGeometry& g = gf.geometry;
    // The stack stays on disk: only its header is checked here, and every
    // rank reads just its own row bands (Algorithm 3) through the
    // file-backed source below.
    const io::StackInfo info = io::stack_info(in);
    require(info.views == g.num_proj && info.cols == g.nu,
            "xct_recon: stack does not match its geometry sidecar");

    if (args.get_flag("autotune") || args.is_set("machine-out")) {
        perfmodel::MachineParams machine;
        if (args.is_set("machine")) {
            machine = autotune::read_machine_json(args.get("machine"));
        } else {
            perfmodel::MachineParams base;
            base.bw_h2d_gbps = 12.0;  // the RankConfig PCIe model defaults
            base.bw_d2h_gbps = 12.0;
            machine = perfmodel::measure_local(base);
            if (args.is_set("calibrate-bench")) {
                autotune::Calibrator cal;
                cal.observe_bench_file(args.get("calibrate-bench"));
                machine = cal.fit(machine);
            }
        }
        if (args.is_set("machine-out")) {
            autotune::write_machine_json(args.get("machine-out"), machine);
            std::printf("wrote %s (machine params)\n", args.get("machine-out").c_str());
        }
        if (args.get_flag("autotune")) {
            autotune::JobShape shape;
            shape.geometry = g;
            shape.rank_budget = ng * nr;
            shape.device_capacity = device_capacity;
            shape.codec = codec;
            const autotune::Candidate fixed{GroupLayout{ng, nr}, batches, queue_depth};
            const autotune::Plan plan = autotune::plan_job(shape, machine, {fixed});
            std::printf("autotune: %s\n", autotune::plan_summary(plan).c_str());
            ng = plan.layout.num_groups;
            nr = plan.layout.ranks_per_group;
            batches = plan.batches;
            queue_depth = plan.queue_depth;
        }
    }

    std::printf("reconstructing %lld^3 from %lld views (%s window, Ng=%lld Nr=%lld)\n",
                static_cast<long long>(g.vol.x), static_cast<long long>(g.num_proj),
                args.get("window").c_str(), static_cast<long long>(ng),
                static_cast<long long>(nr));

    recon::DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{ng, nr};
    cfg.window = filter::window_from_name(args.get("window"));
    cfg.batches = batches;
    cfg.device_capacity = device_capacity;
    cfg.threaded = !args.get_flag("sequential");
    cfg.band_codec = codec;
    cfg.queue_depth = queue_depth;
    if (gf.raw_counts) cfg.beer = gf.beer;
    cfg.retry = retry;
    cfg.degraded_reduce = args.get_flag("degraded");
    cfg.watchdog_timeout_s = watchdog_timeout;
    if (args.is_set("checkpoint-dir")) cfg.checkpoint_dir = args.get("checkpoint-dir");

    Range slices{0, g.vol.z};
    if (args.is_set("slices")) {
        require(ng == 1 && nr == 1, "xct_recon: --slices is a single-rank feature");
        long long lo = 0, hi = 0;
        require(std::sscanf(args.get("slices").c_str(), "%lld:%lld", &lo, &hi) == 2,
                "xct_recon: --slices expects a:b");
        require(lo >= 0 && lo < hi && hi <= g.vol.z, "xct_recon: --slices outside the volume");
        slices = Range{lo, hi};
    }

    // Every rank reads its bands straight from the stack file, and every
    // reduced slab goes straight into the output file: neither the stack
    // nor the volume is ever whole in host memory.
    const perfmodel::MachineParams link;  // modelled load/store bandwidths
    io::Pfs pfs(in.has_parent_path() ? in.parent_path() : std::filesystem::path("."),
                link.bw_load_gbps, link.bw_store_gbps);
    pfs.set_retry(retry);
    const recon::SourceFactory sources =
        recon::make_shared_pfs_factory(pfs, in.filename().string(), gf.raw_counts);
    io::VolumeWriter writer(args.get("output"), Dim3{g.vol.x, g.vol.y, slices.length()});
    const recon::Storer store = recon::file_storer(writer, slices.lo);

    if (ng == 1 && nr == 1) {
        recon::RankConfig rc = cfg;
        if (cfg.checkpoint_dir) rc.checkpoint = recon::CheckpointConfig{*cfg.checkpoint_dir, -1};
        const auto source = sources(RankId{0});
        const recon::RankStats st = recon::reconstruct_fdk_slices(rc, *source, slices, store);
        std::printf("stages: load %.3f filter %.3f prefetch %.3f bp %.3f store %.3f | "
                    "wall %.3f s\n",
                    st.t_load, st.t_filter, st.t_prefetch, st.t_bp, st.t_store, st.wall);
        if (args.is_set("report")) {
            const telemetry::report::RankTimings t =
                to_timings(st, RankId{0}, GroupId{0}, telemetry::flight::snapshot(t0));
            telemetry::report::observe_fleet(t);  // single-rank fleet of one
            write_report(g, 1, 1, {t});
        }
    } else {
        const recon::DistributedResult r = recon::reconstruct_distributed(cfg, sources, store);
        for (const RankId d : r.dead)
            std::printf("rank %lld dropped out; its view share was replayed by a survivor\n",
                        static_cast<long long>(d.value()));
        for (RankId rank{0}; rank.value() < ng * nr; ++rank) {
            const recon::RankStats& st = r.ranks[static_cast<std::size_t>(rank.value())];
            std::printf("rank %lld (group %lld): load %.3f filter %.3f prefetch %.3f bp %.3f "
                        "reduce %.3f store %.3f | wall %.3f s overlap %.2f\n",
                        static_cast<long long>(rank.value()),
                        static_cast<long long>(cfg.layout.group_of(rank).value()), st.t_load,
                        st.t_filter, st.t_prefetch, st.t_bp, st.t_reduce, st.t_store, st.wall,
                        st.overlap_factor());
        }
        double busy = 0.0, worst_wall = 0.0;
        for (const auto& st : r.ranks) {
            busy += st.busy();
            worst_wall = std::max(worst_wall, st.wall);
        }
        std::printf("distributed wall %.3f s across %lld ranks | aggregate overlap %.2f\n",
                    r.wall_seconds, static_cast<long long>(ng * nr),
                    worst_wall > 0.0 ? busy / (static_cast<double>(ng * nr) * worst_wall) : 0.0);
        if (args.is_set("report")) {
            // The fleet histograms were filled by the distributed layer's
            // final minimpi gather; here we only join model vs measured.
            const auto window = telemetry::flight::snapshot(t0);
            std::vector<telemetry::report::RankTimings> ts;
            ts.reserve(r.ranks.size());
            for (RankId rank{0}; rank.value() < ng * nr; ++rank)
                ts.push_back(to_timings(r.ranks[static_cast<std::size_t>(rank.value())], rank,
                                        cfg.layout.group_of(rank), window));
            write_report(g, ng, nr, ts);
        }
    }

    writer.commit();
    std::printf("wrote %s", args.get("output").c_str());
    if (args.is_set("slices"))
        std::printf(" (ROI slices [%lld, %lld))", static_cast<long long>(slices.lo),
                    static_cast<long long>(slices.hi));
    std::printf("\n");
    if (args.is_set("slice-pgm")) {
        // The preview's one slice comes back off disk.
        const index_t mid = slices.length() / 2;
        io::write_pgm_slice(args.get("slice-pgm"),
                            io::read_volume_slices(args.get("output"), Range{mid, mid + 1}), 0);
        std::printf("wrote %s\n", args.get("slice-pgm").c_str());
    }
    dump_telemetry();
    return 0;
}
