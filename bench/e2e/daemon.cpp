#include "daemon.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "io/datasets.hpp"
#include "recon/source.hpp"
#include "result.hpp"
#include "serve/socket.hpp"
#include "workloads.hpp"

namespace xct::bench {

namespace {

constexpr double kPollSeconds = 0.010;

/// AF_UNIX paths are capped at ~107 bytes: address the socket relative to
/// the working directory (daemon and client share it) when that is shorter.
std::filesystem::path short_path(const std::filesystem::path& p)
{
    const std::filesystem::path rel = std::filesystem::proximate(p);
    return rel.native().size() < p.native().size() ? rel : p;
}

std::vector<std::string> daemon_argv(const std::filesystem::path& exe,
                                     const std::filesystem::path& dir,
                                     const std::filesystem::path& socket)
{
    std::filesystem::remove_all(dir / "spool");
    std::filesystem::create_directories(dir);
    return {exe.string(), "--spool", (dir / "spool").string(), "--socket", socket.string()};
}

void sleep_s(double s)
{
    if (s > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

std::uint64_t splitmix64(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// Seeded draws that hit a fixed mix exactly: value v appears weights[v]
/// times in every round of sum(weights) draws, in shuffled order.  Runs
/// with different seeds then share the mix's proportions and differ only
/// in its order, which keeps seed-to-seed spread down to timing noise.
class Deck {
public:
    explicit Deck(std::vector<index_t> weights) : weights_(std::move(weights)) {}

    index_t draw(std::uint64_t& rng)
    {
        if (next_ == cards_.size()) {
            cards_.clear();
            for (std::size_t v = 0; v < weights_.size(); ++v)
                cards_.insert(cards_.end(), static_cast<std::size_t>(weights_[v]),
                              static_cast<index_t>(v));
            for (std::size_t i = cards_.size(); i > 1; --i)
                std::swap(cards_[i - 1], cards_[splitmix64(rng) % i]);
            next_ = 0;
        }
        return cards_[next_++];
    }

private:
    std::vector<index_t> weights_;
    std::vector<index_t> cards_;
    std::size_t next_ = 0;
};

serve::JobStatus poll_status(Daemon& d, serve::JobId id)
{
    serve::Request req;
    req.op = "status";
    req.id = id;
    return serve::decode_status(json_member(d.call(req), "job"));
}

/// Submit and stamp the client-side submit timings.
JobTiming submit(Daemon& d, const serve::JobSpec& spec, index_t spec_key)
{
    serve::Request req;
    req.op = "submit";
    req.spec = spec;
    JobTiming t;
    t.spec_key = spec_key;
    t.submitted = now_s();
    const serve::Json reply = d.call(req);
    t.submit_rtt_s = now_s() - t.submitted;
    t.id = static_cast<serve::JobId>(json_member(reply, "id").as_number("id"));
    t.accepted = json_member(reply, "accepted").as_bool("accepted");
    if (!t.accepted) {
        t.state = serve::JobState::Rejected;
        t.reason = json_member(reply, "reason").as_string("reason");
        t.finished = t.submitted + t.submit_rtt_s;
    }
    return t;
}

/// Update `t` from one status poll at time `now`; true once terminal.
bool observe(Daemon& d, JobTiming& t, double now)
{
    const serve::JobStatus st = poll_status(d, t.id);
    if (st.state == serve::JobState::Running && t.running < 0.0) t.running = now;
    if (!serve::is_terminal(st.state)) return false;
    t.state = st.state;
    t.finished = now;
    t.output = st.output;
    t.reason = st.reason;
    return true;
}

void add_job_spans(SpanLog& spans, const JobTiming& t, index_t lane)
{
    if (!spans.enabled()) return;
    const double started = t.running >= 0.0 ? t.running : t.finished;
    const index_t job_span = spans.add("serve.job", t.submitted, t.finished, -1, lane);
    const index_t queued = spans.add("serve.queued", t.submitted, started, job_span, lane);
    spans.add("serve.submit", t.submitted, t.submitted + t.submit_rtt_s, queued, lane);
    spans.add("serve.running", started, t.finished, job_span, lane);
}

}  // namespace

Daemon::Daemon(const std::filesystem::path& exe, const std::filesystem::path& dir)
    : socket_(short_path(dir / "s.sock")),
      child_(daemon_argv(exe, dir, socket_), dir / "serve.log")
{
}

void Daemon::wait_ready(double timeout_s)
{
    serve::Request ping;
    ping.op = "ping";
    const double deadline = now_s() + timeout_s;
    for (;;) {
        try {
            call(ping, 1.0);
            return;
        } catch (const std::exception& e) {
            if (now_s() > deadline)
                throw std::runtime_error(std::string("xct_bench: daemon not ready: ") + e.what());
        }
        sleep_s(0.002);
    }
}

serve::Json Daemon::call(const serve::Request& req, double timeout_s)
{
    const std::string line = serve::unix_request(socket_, serve::encode_request(req), timeout_s);
    serve::Json reply = serve::Json::parse(line);
    const serve::Json* ok = reply.find("ok");
    if (ok == nullptr || ok->type != serve::Json::Type::Bool || !ok->boolean)
        throw std::runtime_error("xct_bench: daemon answered " + req.op + " with " + line);
    return reply;
}

ChildExit Daemon::stop()
{
    serve::Request req;
    req.op = "shutdown";
    call(req);
    return child_.wait();
}

const std::vector<MixSpec>& mix_specs()
{
    static const std::vector<MixSpec> specs = [] {
        std::vector<MixSpec> v;
        for (const auto& [volume, batches] : {std::pair<index_t, index_t>{48, 4}, {64, 8}})
            for (std::uint64_t seed = 0; seed < 4; ++seed)
                v.push_back(MixSpec{volume, batches, seed});
        return v;
    }();
    return specs;
}

serve::JobSpec job_spec(const MixSpec& m)
{
    serve::JobSpec spec;
    spec.geometry = io::dataset_by_name("tomo_00030").scaled(8).with_volume(m.volume).geometry;
    spec.phantom_seed = m.phantom_seed;
    spec.batches = m.batches;
    spec.device_capacity = 64u << 20;
    return spec;
}

Volume job_oracle(const serve::JobSpec& spec)
{
    // The geometry as the daemon receives it: the spec's wire form does not
    // carry the sigma_u / sigma_v / sigma_cor calibration offsets, so the
    // daemon reconstructs (and projects) without them.
    const CbctGeometry g =
        serve::decode_spec(serve::Json::parse(serve::encode_spec(spec))).geometry;
    // Mirrors the engine's source: a phantom inscribing the volume,
    // Shepp-Logan for seed 0, else an 8-void porous bean.
    const double radius_mm = 0.45 * static_cast<double>(g.vol.x) * g.dx;
    auto ellipsoids = spec.phantom_seed == 0
                          ? phantom::shepp_logan_3d(radius_mm)
                          : phantom::porous_bean(radius_mm, 8, spec.phantom_seed);
    recon::PhantomSource src(std::move(ellipsoids), g);
    return oracle_fdk(src.load(Range{0, g.num_proj}, Range{0, g.nv}),
                      io::GeometryFile{g, {}, false});
}

JobTiming run_one_job(Daemon& d, const serve::JobSpec& spec, index_t spec_key, double timeout_s,
                      SpanLog& spans)
{
    JobTiming t = submit(d, spec, spec_key);
    const double deadline = t.submitted + timeout_s;
    while (t.accepted && !observe(d, t, now_s())) {
        if (now_s() > deadline) throw std::runtime_error("xct_bench: serve job timed out");
        sleep_s(kPollSeconds);
    }
    add_job_spans(spans, t, 2);
    return t;
}

std::vector<JobTiming> run_mix(Daemon& d, std::uint64_t seed, double seconds,
                               std::size_t min_jobs, std::size_t in_flight, SpanLog& spans)
{
    std::uint64_t rng = seed;
    const std::vector<MixSpec>& specs = mix_specs();
    Deck size({4, 1});               // 80 % 48^3, 20 % 64^3
    Deck phantom({1, 1, 1, 1});      // phantom_seed 0..3
    Deck tenant({1, 1});             // a, b
    Deck priority({2, 5, 3});        // 20/50/30 % high/normal/low
    const serve::Priority priorities[] = {serve::Priority::High, serve::Priority::Normal,
                                          serve::Priority::Low};
    std::vector<JobTiming> done;
    std::vector<JobTiming> live(in_flight);
    std::vector<bool> busy(in_flight, false);
    std::size_t submitted = 0;
    std::size_t active = 0;
    const double end = now_s() + seconds;
    double next_poll = now_s();
    for (;;) {
        for (std::size_t slot = 0; slot < in_flight; ++slot) {
            if (busy[slot] || (now_s() >= end && submitted >= min_jobs)) continue;
            const index_t key = 4 * size.draw(rng) + phantom.draw(rng);
            serve::JobSpec spec = job_spec(specs[static_cast<std::size_t>(key)]);
            spec.tenant = std::string(1, static_cast<char>('a' + tenant.draw(rng)));
            spec.priority = priorities[priority.draw(rng)];
            live[slot] = submit(d, spec, key);
            ++submitted;
            if (live[slot].accepted) {
                busy[slot] = true;
                ++active;
            } else {
                done.push_back(live[slot]);
            }
        }
        if (active == 0) break;
        next_poll = std::max(next_poll + kPollSeconds, now_s());
        sleep_s(next_poll - now_s());
        const double now = now_s();
        for (std::size_t slot = 0; slot < in_flight; ++slot) {
            if (!busy[slot] || !observe(d, live[slot], now)) continue;
            add_job_spans(spans, live[slot], static_cast<index_t>(2 + slot));
            done.push_back(live[slot]);
            busy[slot] = false;
            --active;
        }
    }
    return done;
}

}  // namespace xct::bench
