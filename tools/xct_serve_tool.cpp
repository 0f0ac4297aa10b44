// xct_serve — the crash-durable multi-tenant reconstruction daemon
// (DESIGN.md §3k) and its command-line client.
//
// Daemon: owns a spool directory (journal, per-job checkpoints, output
// volumes) and a local AF_UNIX socket carrying the typed JSON job API.
// Every submitted job is priced through the perfmodel-driven admission
// layer against the daemon-wide device budget and either queued or
// rejected with a stable reason; workers schedule by priority, tenant
// fair share and FIFO, propagate deadlines into the pipeline watchdog,
// and every state transition is journaled (fsync) before it takes
// effect.  kill -9 the daemon and restart it over the same spool: the
// journal replays, unfinished jobs resume from their last checkpoint
// slab, and the recovered volumes are bitwise-identical to an
// uninterrupted run.
//
//   xct_serve --spool /tmp/spool --workers 2 --device-budget-mib 256
//
// Client: one-shot requests against a running daemon's socket.
//
//   xct_serve --client --socket /tmp/spool/xct-serve.sock --op submit
//             --volume 32 --scale 12 --priority high --deadline 30
//   xct_serve --client --socket ... --op status --id 3
//   xct_serve --client --socket ... --op wait --id 3 --timeout 60
//   xct_serve --client --socket ... --op cancel --id 3
//   xct_serve --client --socket ... --op fetch-slice --id 3 --slice 16
//   xct_serve --client --socket ... --op list|metrics|ping|shutdown
//
// The client prints the daemon's JSON response on stdout and exits 0
// iff the response carries "ok": true — shell-scriptable (the CI
// serve-smoke job drives exactly this surface).
//
// Resilience knobs mirror xct_recon: `--faults` installs a deterministic
// fault plan (new sites: serve.accept, serve.journal.append) and
// `--integrity` arms digest verification on every bulk data movement.

#include <csignal>
#include <cstdio>
#include <sstream>

#include "cli.hpp"
#include "faults/fault.hpp"
#include "integrity/integrity.hpp"
#include "io/datasets.hpp"
#include "io/raw_io.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "telemetry/metrics.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

/// Lower-case hex of a byte span (the fetch_slice payload encoding:
/// bitwise-exact, newline-free, shell-friendly).
std::string hex_encode(std::span<const std::byte> bytes)
{
    static const char* digits = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const std::byte b : bytes) {
        out.push_back(digits[std::to_integer<unsigned>(b) >> 4]);
        out.push_back(digits[std::to_integer<unsigned>(b) & 0xF]);
    }
    return out;
}

/// --socket, else <spool>/xct-serve.sock: the daemon and the client both
/// resolve the path here, so a client finds the daemon on the same spool.
std::filesystem::path socket_path(const xct::cli::Args& args)
{
    return args.is_set("socket") ? std::filesystem::path(args.get("socket"))
                                 : std::filesystem::path(args.get("spool")) / "xct-serve.sock";
}

std::string handle(xct::serve::Engine& engine, const std::string& line)
{
    using namespace xct;
    const serve::Request req = serve::decode_request(line);
    std::ostringstream ss;
    if (req.op == "ping") {
        ss << "{\"ok\":true,\"pong\":true}";
    } else if (req.op == "submit") {
        const serve::SubmitResult r = engine.submit(req.spec);
        ss << "{\"ok\":true,\"id\":" << r.id << ",\"accepted\":" << (r.accepted ? "true" : "false")
           << ",\"reason\":" << json_quote(r.reason)
           << ",\"detail\":" << json_quote(r.detail)
           << ",\"predicted_s\":" << json_number(r.predicted_s)
           << ",\"tail_bound_s\":" << json_number(engine.tail_bound_s(r.predicted_s))
           << "}";
    } else if (req.op == "status") {
        ss << "{\"ok\":true,\"job\":" << serve::encode_status(engine.status(req.id)) << "}";
    } else if (req.op == "wait") {
        ss << "{\"ok\":true,\"job\":" << serve::encode_status(engine.wait(req.id, req.timeout_s))
           << "}";
    } else if (req.op == "cancel") {
        const bool live = engine.cancel(req.id);
        ss << "{\"ok\":true,\"cancelled\":" << (live ? "true" : "false") << "}";
    } else if (req.op == "list") {
        ss << "{\"ok\":true,\"jobs\":[";
        bool first = true;
        for (const serve::JobStatus& st : engine.list()) {
            if (!first) ss << ",";
            first = false;
            ss << serve::encode_status(st);
        }
        ss << "]}";
    } else if (req.op == "fetch_slice") {
        const serve::JobStatus st = engine.status(req.id);
        if (st.state != serve::JobState::Done)
            throw std::runtime_error("fetch_slice: job " + std::to_string(req.id) + " is " +
                                     serve::to_string(st.state) + ", not done");
        // One slice off disk, never the whole volume; the reader rejects a
        // slice outside the volume with a reason.
        const Volume v = io::read_volume_slices(st.output, Range{req.slice, req.slice + 1});
        const std::span<const float> s = v.slice(0);
        ss << "{\"ok\":true,\"id\":" << req.id << ",\"slice\":" << req.slice
           << ",\"nx\":" << v.size().x << ",\"ny\":" << v.size().y
           << ",\"data\":" << json_quote(hex_encode(std::as_bytes(s))) << "}";
    } else if (req.op == "metrics") {
        const telemetry::MetricsSnapshot snap = telemetry::registry().snapshot();
        ss << "{\"ok\":true,\"counters\":{";
        bool first = true;
        for (const auto& c : snap.counters) {
            if (!first) ss << ",";
            first = false;
            ss << json_quote(c.name) << ":" << c.value;
        }
        ss << "},\"gauges\":{";
        first = true;
        for (const auto& g : snap.gauges) {
            if (!first) ss << ",";
            first = false;
            ss << json_quote(g.name) << ":" << json_number(g.value);
        }
        ss << "}}";
    } else if (req.op == "shutdown") {
        g_stop.store(true, std::memory_order_release);
        ss << "{\"ok\":true,\"stopping\":true}";
    } else {
        throw std::invalid_argument("unknown op \"" + req.op + "\"");
    }
    return ss.str();
}

int run_daemon(const xct::cli::Args& args)
{
    using namespace xct;
    serve::EngineConfig cfg;
    cfg.spool = args.get("spool");
    cfg.device_budget = static_cast<std::size_t>(args.get_int("device-budget-mib")) << 20;
    cfg.workers = args.get_int("workers");
    cfg.max_queued = args.get_int("max-queued");
    cfg.tail_slack = args.get_double("tail-slack");
    cfg.fsync_journal = !args.get_flag("no-fsync");

    serve::Engine engine(cfg);
    serve::UnixServer server(socket_path(args));
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    engine.start();
    std::printf("xct_serve: spool %s, socket %s, %lld workers, budget %lld MiB, "
                "queue %lld (%lld jobs recovered)\n",
                cfg.spool.string().c_str(), server.path().string().c_str(),
                static_cast<long long>(cfg.workers),
                static_cast<long long>(cfg.device_budget >> 20),
                static_cast<long long>(cfg.max_queued),
                static_cast<long long>(engine.recovered_jobs()));
    std::fflush(stdout);

    server.run([&engine](const std::string& line) { return handle(engine, line); }, g_stop);

    // Graceful stop deliberately mirrors a crash: running jobs are
    // cancelled but stay non-terminal in the journal, so the next daemon
    // over this spool requeues them from their checkpoints.
    engine.stop();
    std::printf("xct_serve: stopped\n");
    return 0;
}

int run_client(const xct::cli::Args& args)
{
    using namespace xct;
    serve::Request req;
    std::string op = args.get("op");
    if (op == "fetch-slice") op = "fetch_slice";
    req.op = op;
    req.id = static_cast<serve::JobId>(args.get_int("id"));
    req.slice = args.get_int("slice");
    req.timeout_s = args.get_double("timeout");
    if (op == "submit") {
        if (args.is_set("spec-json")) {
            req.spec = serve::decode_spec(Json::parse(args.get("spec-json")));
        } else {
            io::Dataset ds = io::dataset_by_name(args.get("dataset"));
            if (args.get_double("scale") > 1.0) ds = ds.scaled(args.get_double("scale"));
            ds = ds.with_volume(args.get_int("volume"));
            req.spec.geometry = ds.geometry;
            req.spec.phantom_seed = static_cast<std::uint64_t>(args.get_int("phantom-seed"));
            req.spec.batches = args.get_int("batches");
            req.spec.device_capacity = static_cast<std::size_t>(args.get_int("job-device-mib"))
                                       << 20;
            req.spec.priority = serve::priority_from(args.get("priority"));
            req.spec.tenant = args.get("tenant");
            req.spec.deadline_s = args.get_double("deadline");
            req.spec.output = args.get("output");
        }
    }
    const std::string response = serve::unix_request(
        socket_path(args), serve::encode_request(req), args.get_double("timeout"));
    std::printf("%s\n", response.c_str());
    const Json j = Json::parse(response);
    const Json* ok = j.find("ok");
    return (ok != nullptr && ok->type == Json::Type::Bool && ok->boolean) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv)
{
    using namespace xct;
    cli::Args args;
    args.option("spool", "serve_spool", "spool directory: journal, checkpoints, outputs")
        .option("socket", "", "AF_UNIX socket path (default: <spool>/xct-serve.sock)")
        .option("workers", "2", "concurrent reconstruction sessions")
        .option("device-budget-mib", "256", "daemon-wide device memory budget [MiB]")
        .option("max-queued", "16", "bounded admission queue depth")
        .option("tail-slack", "1.25", "perfmodel tail-bound slack factor")
        .option("faults", "", "fault plan: <site>[:k=v,...][;<site>...] (keys p,after,count)")
        .option("fault-seed", "1", "seed for probabilistic fault triggers")
        .option("op", "ping",
                "client op: ping|submit|status|list|cancel|wait|fetch-slice|metrics|shutdown")
        .option("id", "0", "job id (status/cancel/wait/fetch-slice)")
        .option("slice", "0", "z-slice index (fetch-slice)")
        .option("timeout", "60", "client request / wait timeout [s]")
        .option("spec-json", "", "submit: raw JobSpec JSON (overrides the options below)")
        .option("dataset", "tomo_00030", "submit: paper dataset the geometry derives from")
        .option("scale", "12", "submit: resolution divisor applied to the dataset")
        .option("volume", "32", "submit: cubic output volume size")
        .option("phantom-seed", "0", "submit: 0 = Shepp-Logan, else porous-bean seed")
        .option("batches", "8", "submit: batch count Nc of the rank pipeline")
        .option("job-device-mib", "64", "submit: this job's device ask [MiB]")
        .option("priority", "normal", "submit: low|normal|high")
        .option("tenant", "default", "submit: fair-share accounting key")
        .option("deadline", "0", "submit: seconds until the job must finish (0 = none)")
        .option("output", "", "submit: volume path (default: <spool>/out/job-<id>.vol)")
        .flag("client", "talk to a running daemon instead of being one")
        .flag("integrity", "verify xxh64 digests on every bulk data movement")
        .flag("no-fsync", "skip the per-record journal fsync (tests only)");
    args.parse(argc, argv, "crash-durable multi-tenant reconstruction daemon");

    if (args.is_set("faults"))
        faults::set_plan(faults::FaultPlan::parse(
            args.get("faults"), static_cast<std::uint64_t>(args.get_int("fault-seed"))));
    integrity::set_enabled(args.get_flag("integrity"));

    try {
        return args.get_flag("client") ? run_client(args) : run_daemon(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "xct_serve: error: %s\n", e.what());
        return 1;
    }
}
