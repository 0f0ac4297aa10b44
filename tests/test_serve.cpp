// Serving-layer tests (DESIGN.md §3k): the crash-durable journal, the
// perfmodel-priced admission control, and the multi-tenant engine's
// scheduling, cancellation, deadline and overload behaviour — including
// the tentpole guarantee that a killed-and-restarted daemon reconstructs
// volumes bitwise identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/cancel.hpp"
#include "faults/fault.hpp"
#include "recon/session.hpp"
#include "serve/admission.hpp"
#include "serve/engine.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "telemetry/metrics.hpp"

namespace xct::serve {
namespace {

std::filesystem::path fresh_dir(const std::string& name)
{
    const auto dir = std::filesystem::temp_directory_path() / ("xct_serve_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

CbctGeometry geo(index_t n = 16, index_t np = 16)
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = np;
    g.nu = 2 * n;
    g.nv = 2 * n;
    g.du = 0.5;
    g.dv = 0.5;
    g.vol = {n, n, n};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x) * 0.7;
    return g;
}

JobSpec small_spec()
{
    JobSpec s;
    s.geometry = geo();
    s.batches = 4;
    return s;
}

EngineConfig engine_config(const std::filesystem::path& spool)
{
    EngineConfig cfg;
    cfg.spool = spool;
    cfg.workers = 1;
    cfg.fsync_journal = false;  // durability is the journal's own test
    return cfg;
}

std::uint64_t counter_value(const char* name)
{
    return telemetry::registry().counter(name).value();
}

/// Poll until `pred` holds or `timeout_s` elapses; true when it held.
bool eventually(double timeout_s, const std::function<bool()>& pred)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
}

// ---- journal ------------------------------------------------------------

TEST(ServeJournal, RoundTripSurvivesReopen)
{
    const auto dir = fresh_dir("journal_roundtrip");
    const auto path = dir / "journal.xjl";
    {
        Journal j(path);
        EXPECT_TRUE(j.recovered().empty());
        j.append(RecordType::Submit, 1, "{\"spec\":true}");
        j.append(RecordType::Accept, 1, "priced");
        j.append(RecordType::Done, 1, "/out/vol");
    }
    Journal j2(path);
    ASSERT_EQ(j2.recovered().size(), 3u);
    EXPECT_EQ(j2.truncated_frames(), 0u);
    EXPECT_EQ(j2.recovered()[0].type, RecordType::Submit);
    EXPECT_EQ(j2.recovered()[0].job, 1u);
    EXPECT_EQ(j2.recovered()[0].payload, "{\"spec\":true}");
    EXPECT_EQ(j2.recovered()[2].type, RecordType::Done);
    EXPECT_EQ(j2.recovered()[2].payload, "/out/vol");
}

TEST(ServeJournal, TornTailIsTruncatedAndAppendableAgain)
{
    const auto dir = fresh_dir("journal_torn");
    const auto path = dir / "journal.xjl";
    {
        Journal j(path);
        j.append(RecordType::Submit, 1, "alpha");
        j.append(RecordType::Start, 1, "");
    }
    const auto intact = std::filesystem::file_size(path);
    {
        // A crash mid-write leaves a partial frame at the tail.
        std::ofstream f(path, std::ios::binary | std::ios::app);
        f.write("XJL1torn-half-frame", 19);
    }
    {
        Journal j(path);
        ASSERT_EQ(j.recovered().size(), 2u);
        EXPECT_EQ(j.truncated_frames(), 1u);
        EXPECT_EQ(std::filesystem::file_size(path), intact);  // tail gone
        j.append(RecordType::Done, 1, "recovered");
    }
    Journal j2(path);
    ASSERT_EQ(j2.recovered().size(), 3u);
    EXPECT_EQ(j2.recovered()[2].payload, "recovered");
}

TEST(ServeJournal, CorruptedFrameIsRejectedOnReplay)
{
    const auto dir = fresh_dir("journal_corrupt");
    const auto path = dir / "journal.xjl";
    {
        // Flip bits in the second append's frame on its way to disk.
        faults::ScopedPlan plan(faults::FaultPlan::parse(
            "serve.journal.append:kind=corrupt,after=1,count=1", 7));
        Journal j(path);
        j.append(RecordType::Submit, 1, "good");
        j.append(RecordType::Accept, 1, "mangled in transit");
        j.append(RecordType::Start, 1, "");
    }
    Journal j2(path);
    // The digest rejects the corrupt frame; everything after it is
    // unreachable, so recovery keeps exactly the intact prefix.
    ASSERT_EQ(j2.recovered().size(), 1u);
    EXPECT_EQ(j2.recovered()[0].payload, "good");
    EXPECT_EQ(j2.truncated_frames(), 1u);
}

// ---- protocol and transport ---------------------------------------------

std::uint64_t bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/// The invalid_argument message `fn` throws; empty when it does not throw.
std::string parse_error(const std::function<void()>& fn)
{
    try {
        fn();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(ServeProtocol, SpecRoundTripCarriesTheCalibrationOffsetsBitForBit)
{
    JobSpec spec = small_spec();
    spec.geometry.sigma_u = -2.3456789012345678;
    spec.geometry.sigma_v = 0.1 + 0.2;
    spec.geometry.sigma_cor = 1e-300;
    const JobSpec back = decode_spec(Json::parse(encode_spec(spec)));
    EXPECT_EQ(bits(back.geometry.sigma_u), bits(spec.geometry.sigma_u));
    EXPECT_EQ(bits(back.geometry.sigma_v), bits(spec.geometry.sigma_v));
    EXPECT_EQ(bits(back.geometry.sigma_cor), bits(spec.geometry.sigma_cor));
    EXPECT_EQ(bits(back.geometry.dx), bits(spec.geometry.dx));
    EXPECT_EQ(back.geometry.vol, spec.geometry.vol);

    // A journal record in the older encoding (no offsets, `%.17g` doubles)
    // replays to the same job with zero offsets.
    const JobSpec legacy = decode_spec(Json::parse(
        R"({"geometry":{"dso":100,"dsd":250,"num_proj":16,"nu":32,"nv":32,"du":0.5,)"
        R"("dv":0.5,"vol":[16,16,16],"dx":0.10000000000000001,"dy":0.1,"dz":0.1,)"
        R"("scan_range":6.2831853071795862},"phantom_seed":0,"batches":4,)"
        R"("device_capacity":67108864,"priority":"normal","tenant":"default",)"
        R"("deadline_s":0,"output":""})"));
    EXPECT_EQ(legacy.geometry.sigma_u, 0.0);
    EXPECT_EQ(legacy.geometry.sigma_v, 0.0);
    EXPECT_EQ(legacy.geometry.sigma_cor, 0.0);
    EXPECT_EQ(bits(legacy.geometry.dx), bits(0.1));
    EXPECT_EQ(bits(legacy.geometry.scan_range), bits(CbctGeometry{}.scan_range));
    EXPECT_EQ(legacy.batches, 4);
}

TEST(ServeProtocol, IntegerFieldsAreCheckedAndNamed)
{
    EXPECT_EQ(decode_request(R"({"op":"status","id":7})").id, 7u);
    const std::pair<const char*, const char*> bad_requests[] = {
        {R"({"op":"status","id":-1})", "id"},
        {R"({"op":"cancel","id":1.5})", "id"},
        {R"({"op":"wait","id":1e30})", "id"},
        {R"({"op":"fetch_slice","id":1,"slice":-1e300})", "slice"},
        {R"({"op":"fetch_slice","id":1,"slice":0.5})", "slice"},
        {R"({"op":"status","id":"7"})", "id"},
    };
    for (const auto& [line, field] : bad_requests)
        EXPECT_NE(parse_error([&] { decode_request(line); }).find(std::string(field) + " must be"),
                  std::string::npos)
            << line;

    // `doc` with the value of `key` replaced by the literal `value`.
    std::string doc = encode_spec(small_spec());
    const auto with = [&](const std::string& key, const std::string& value) {
        std::string s = doc;
        const std::size_t at = s.find("\"" + key + "\":");
        const std::size_t from = at + key.size() + 3;
        s.replace(from, s.find_first_of(",]}", from) - from, value);
        return s;
    };
    for (const auto& [key, value] :
         std::vector<std::pair<std::string, std::string>>{{"batches", "1e300"},
                                                          {"device_capacity", "-1"},
                                                          {"phantom_seed", "-5"},
                                                          {"num_proj", "16.5"},
                                                          {"nu", "9223372036854775808"}})
        EXPECT_NE(parse_error([&] { decode_spec(Json::parse(with(key, value))); })
                      .find(key + " must be"),
                  std::string::npos)
            << key << "=" << value;

    JobStatus st;
    st.id = 3;
    doc = encode_status(st);
    EXPECT_EQ(decode_status(Json::parse(doc)).id, 3u);
    EXPECT_NE(parse_error([&] { decode_status(Json::parse(with("device_bytes", "-1"))); })
                  .find("device_bytes must be"),
              std::string::npos);
}

TEST(ServeSocket, HostileLineIsRejectedAndTheServerKeepsAnswering)
{
    const auto dir = fresh_dir("socket_hostile");
    UnixServer server(dir / "s.sock");
    std::atomic<bool> stop{false};
    std::thread loop([&] {
        server.run(
            [](const std::string& line) {
                const Request r = decode_request(line);
                if (r.op != "ping") throw std::invalid_argument("unexpected op " + r.op);
                return std::string("{\"ok\":true,\"pong\":true}");
            },
            stop);
    });
    struct StopAndJoin {
        std::atomic<bool>& stop;
        std::thread& loop;
        ~StopAndJoin()
        {
            stop.store(true);
            loop.join();
        }
    } guard{stop, loop};

    // One request line of 200 kB of '[': a recursive reader without a
    // nesting cap overflows the stack here.
    const Json reply = Json::parse(unix_request(server.path(), std::string(200000, '[')));
    EXPECT_FALSE(reply.at("ok").as_bool("ok"));
    EXPECT_NE(reply.at("error").as_string("error").find("nesting deeper than 64 at byte 64"),
              std::string::npos);

    // One line of `[0,0,...]` just under the 16 MiB line cap: one level
    // deep, but ~8 M values; the parse stops at Json::kMaxNodes.
    std::string flat = "[0";
    while (flat.size() < (16u << 20) - 3) flat += ",0";
    flat += "]";
    const Json flat_reply = Json::parse(unix_request(server.path(), flat, 30.0));
    EXPECT_FALSE(flat_reply.at("ok").as_bool("ok"));
    EXPECT_NE(flat_reply.at("error").as_string("error").find("more than 262144 values"),
              std::string::npos);

    Request ping;
    ping.op = "ping";
    const Json pong = Json::parse(unix_request(server.path(), encode_request(ping)));
    EXPECT_TRUE(pong.at("ok").as_bool("ok"));
}

// ---- admission ----------------------------------------------------------

TEST(ServeAdmission, AcceptsAFeasibleSpec)
{
    const Decision d = price(small_spec(), perfmodel::MachineParams{});
    EXPECT_TRUE(d.admitted);
    EXPECT_GT(d.device_bytes, 0u);
    EXPECT_GT(d.predicted_s, 0.0);
}

TEST(ServeAdmission, RejectsAlreadyExpiredDeadline)
{
    JobSpec s = small_spec();
    s.deadline_s = -1.0;
    const Decision d = price(s, perfmodel::MachineParams{});
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, "deadline");
}

TEST(ServeAdmission, RejectsDeadlineTighterThanPrediction)
{
    JobSpec s = small_spec();
    s.deadline_s = 1e-9;
    const Decision d = price(s, perfmodel::MachineParams{});
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, "deadline");
}

TEST(ServeAdmission, RejectsInfeasibleDeviceAsk)
{
    JobSpec s = small_spec();
    s.device_capacity = 1u << 10;  // 1 KiB holds no texture
    const Decision d = price(s, perfmodel::MachineParams{});
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, "infeasible");
}

TEST(ServeAdmission, RejectsInvalidSpec)
{
    JobSpec s = small_spec();
    s.batches = 0;
    const Decision d = price(s, perfmodel::MachineParams{});
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, "invalid");
}

// ---- session ------------------------------------------------------------

TEST(ReconSessionTest, ReportsProgressAndIsSingleUse)
{
    recon::RankConfig rc;
    rc.geometry = geo();
    rc.batches = 4;
    auto src = std::make_unique<recon::PhantomSource>(
        phantom::shepp_logan_3d(0.45 * rc.geometry.dx * static_cast<double>(rc.geometry.vol.x)),
        rc.geometry);
    recon::ReconSession session(rc, std::move(src));
    EXPECT_EQ(session.state(), recon::SessionState::Ready);
    EXPECT_GT(session.total_slabs(), 0);
    EXPECT_DOUBLE_EQ(session.progress(), 0.0);
    Volume volume(rc.geometry.vol);
    const recon::RankStats st = session.run(recon::volume_storer(volume));
    EXPECT_GT(st.wall, 0.0);
    EXPECT_GT(*std::max_element(volume.span().begin(), volume.span().end()), 0.0f);
    EXPECT_EQ(session.state(), recon::SessionState::Done);
    EXPECT_EQ(session.completed_slabs(), session.total_slabs());
    EXPECT_DOUBLE_EQ(session.progress(), 1.0);
    EXPECT_THROW((void)session.run(recon::volume_storer(volume)), std::logic_error);  // single-use
}

TEST(ReconSessionTest, CancelUnwindsWithinOneStageBoundary)
{
    // Every batch load sleeps 0.3 s; cancelling mid-run must unwind at
    // the next stage boundary — not run the remaining slabs to the end.
    faults::ScopedPlan plan(faults::FaultPlan::parse(
        "source.load:kind=stall,delay=0.3,after=0,count=-1", 1));
    recon::RankConfig rc;
    rc.geometry = geo();
    rc.batches = 4;
    auto src = std::make_unique<recon::PhantomSource>(
        phantom::shepp_logan_3d(0.45 * rc.geometry.dx * static_cast<double>(rc.geometry.vol.x)),
        rc.geometry);
    recon::ReconSession session(rc, std::move(src));
    Volume volume(rc.geometry.vol);
    std::thread runner(
        [&] { EXPECT_THROW((void)session.run(recon::volume_storer(volume)), core::Cancelled); });
    ASSERT_TRUE(eventually(10.0, [&] { return session.completed_slabs() >= 1; }));
    const auto t0 = std::chrono::steady_clock::now();
    session.cancel_token().request_cancel();
    runner.join();
    const double unwind_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    EXPECT_EQ(session.state(), recon::SessionState::Cancelled);
    EXPECT_LT(session.completed_slabs(), session.total_slabs());
    // One stage boundary: at most one in-flight 0.3 s load plus slack,
    // never the ~1.2 s the remaining batches would cost.
    EXPECT_LT(unwind_s, 1.0);
}

// ---- engine -------------------------------------------------------------

TEST(ServeEngine, RunsASubmittedJobToDone)
{
    const auto spool = fresh_dir("engine_done");
    Engine engine(engine_config(spool));
    engine.start();
    const SubmitResult r = engine.submit(small_spec());
    ASSERT_TRUE(r.accepted) << r.reason << ": " << r.detail;
    EXPECT_GT(engine.tail_bound_s(r.predicted_s), r.predicted_s);
    const JobStatus st = engine.wait(r.id, 60.0);
    EXPECT_EQ(st.state, JobState::Done);
    EXPECT_DOUBLE_EQ(st.progress, 1.0);
    EXPECT_TRUE(std::filesystem::exists(st.output));
    EXPECT_THROW((void)engine.status(999), std::out_of_range);
}

TEST(ServeEngine, CancelMidRunReleasesBudgetWithinOneStage)
{
    const auto spool = fresh_dir("engine_cancel");
    EngineConfig cfg = engine_config(spool);
    Engine engine(cfg);
    engine.start();
    JobId victim = 0;
    {
        faults::ScopedPlan plan(faults::FaultPlan::parse(
            "source.load:kind=stall,delay=0.4,after=0,count=-1", 1));
        const SubmitResult r = engine.submit(small_spec());
        ASSERT_TRUE(r.accepted);
        victim = r.id;
        ASSERT_TRUE(eventually(10.0, [&] {
            return engine.status(victim).state == JobState::Running;
        }));
        const auto t0 = std::chrono::steady_clock::now();
        EXPECT_TRUE(engine.cancel(victim));
        const JobStatus st = engine.wait(victim, 10.0);
        const double unwind_s = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count();
        EXPECT_EQ(st.state, JobState::Cancelled);
        EXPECT_LT(unwind_s, 2.0);  // one 0.4 s stage plus slack, not 4x
    }
    // The cancelled job's device bytes are back: a follow-up job is
    // schedulable and completes (with the stall plan gone, quickly).
    const SubmitResult r2 = engine.submit(small_spec());
    ASSERT_TRUE(r2.accepted);
    EXPECT_EQ(engine.wait(r2.id, 60.0).state, JobState::Done);
    EXPECT_FALSE(engine.cancel(r2.id));  // already terminal
}

TEST(ServeEngine, QueueFullRejectsWithStableReason)
{
    const auto spool = fresh_dir("engine_queue_full");
    EngineConfig cfg = engine_config(spool);
    cfg.max_queued = 1;
    Engine engine(cfg);
    engine.start();
    faults::ScopedPlan plan(faults::FaultPlan::parse(
        "source.load:kind=stall,delay=0.4,after=0,count=-1", 1));
    const SubmitResult blocker = engine.submit(small_spec());
    ASSERT_TRUE(blocker.accepted);
    ASSERT_TRUE(eventually(10.0, [&] {
        return engine.status(blocker.id).state == JobState::Running;
    }));
    const SubmitResult queued = engine.submit(small_spec());
    ASSERT_TRUE(queued.accepted);
    const std::uint64_t rejects = counter_value("serve.reject");
    const SubmitResult overflow = engine.submit(small_spec());
    EXPECT_FALSE(overflow.accepted);
    EXPECT_EQ(overflow.reason, "queue_full");
    EXPECT_EQ(counter_value("serve.reject"), rejects + 1);
    EXPECT_TRUE(engine.cancel(queued.id));
    EXPECT_TRUE(engine.cancel(blocker.id));
    engine.drain();
}

TEST(ServeEngine, ExpiredQueuedJobIsShedNotRun)
{
    const auto spool = fresh_dir("engine_shed");
    Engine engine(engine_config(spool));
    engine.start();
    const std::uint64_t shed_before = counter_value("serve.shed");
    JobId victim = 0;
    {
        faults::ScopedPlan plan(faults::FaultPlan::parse(
            "source.load:kind=stall,delay=0.4,after=0,count=-1", 1));
        const SubmitResult blocker = engine.submit(small_spec());
        ASSERT_TRUE(blocker.accepted);
        ASSERT_TRUE(eventually(10.0, [&] {
            return engine.status(blocker.id).state == JobState::Running;
        }));
        JobSpec doomed = small_spec();
        doomed.deadline_s = 0.2;  // expires long before the blocker ends
        const SubmitResult r = engine.submit(doomed);
        ASSERT_TRUE(r.accepted);
        victim = r.id;
        EXPECT_EQ(engine.wait(blocker.id, 60.0).state, JobState::Done);
    }
    const JobStatus st = engine.wait(victim, 10.0);
    EXPECT_EQ(st.state, JobState::Shed);
    EXPECT_GE(counter_value("serve.shed"), shed_before + 1);
}

TEST(ServeEngine, MidRunDeadlineTripsTheWatchdog)
{
    // Admission accepts (predicted runtime is milliseconds), but a 1.5 s
    // injected stall blows the 1 s deadline mid-run: the remaining budget
    // was propagated into the pipeline watchdog, which converts the stall
    // into DeadlineExceeded and fails the job — the degraded path, seeded
    // and bitwise-reproducible like every fault-plan scenario.
    const auto spool = fresh_dir("engine_deadline");
    Engine engine(engine_config(spool));
    engine.start();
    faults::ScopedPlan plan(faults::FaultPlan::parse(
        "source.load:kind=stall,delay=1.5,after=0,count=-1", 21));
    JobSpec s = small_spec();
    s.deadline_s = 1.0;
    const SubmitResult r = engine.submit(s);
    ASSERT_TRUE(r.accepted) << r.reason;
    const JobStatus st = engine.wait(r.id, 60.0);
    EXPECT_EQ(st.state, JobState::Failed);
    EXPECT_NE(st.reason.find("watchdog deadline exceeded"), std::string::npos) << st.reason;
}

TEST(ServeEngine, PriorityBeatsSubmissionOrder)
{
    const auto spool = fresh_dir("engine_priority");
    Engine engine(engine_config(spool));
    engine.start();
    faults::ScopedPlan plan(faults::FaultPlan::parse(
        "source.load:kind=stall,delay=0.4,after=0,count=-1", 1));
    const SubmitResult blocker = engine.submit(small_spec());
    ASSERT_TRUE(blocker.accepted);
    ASSERT_TRUE(eventually(10.0, [&] {
        return engine.status(blocker.id).state == JobState::Running;
    }));
    JobSpec low = small_spec();
    low.priority = Priority::Low;
    JobSpec high = small_spec();
    high.priority = Priority::High;
    const SubmitResult rl = engine.submit(low);   // submitted first...
    const SubmitResult rh = engine.submit(high);  // ...but outranked
    ASSERT_TRUE(rl.accepted);
    ASSERT_TRUE(rh.accepted);
    ASSERT_TRUE(eventually(30.0, [&] {
        return engine.status(rh.id).state != JobState::Queued;
    }));
    EXPECT_EQ(engine.status(rl.id).state, JobState::Queued);
    EXPECT_TRUE(engine.cancel(rl.id));
    EXPECT_TRUE(engine.cancel(rh.id));
    engine.drain();
}

TEST(ServeEngine, FairShareFavorsTheLeastServedTenant)
{
    const auto spool = fresh_dir("engine_fairshare");
    Engine engine(engine_config(spool));
    engine.start();
    faults::ScopedPlan plan(faults::FaultPlan::parse(
        "source.load:kind=stall,delay=0.4,after=0,count=-1", 1));
    JobSpec a = small_spec();
    a.tenant = "alice";
    const SubmitResult blocker = engine.submit(a);  // alice accrues service
    ASSERT_TRUE(blocker.accepted);
    ASSERT_TRUE(eventually(10.0, [&] {
        return engine.status(blocker.id).state == JobState::Running;
    }));
    const SubmitResult a2 = engine.submit(a);  // alice again, FIFO-first
    JobSpec b = small_spec();
    b.tenant = "bob";
    const SubmitResult b1 = engine.submit(b);  // bob, same priority, later
    ASSERT_TRUE(a2.accepted);
    ASSERT_TRUE(b1.accepted);
    ASSERT_TRUE(eventually(30.0, [&] {
        return engine.status(b1.id).state != JobState::Queued;
    }));
    EXPECT_EQ(engine.status(a2.id).state, JobState::Queued);
    EXPECT_TRUE(engine.cancel(a2.id));
    EXPECT_TRUE(engine.cancel(b1.id));
    engine.drain();
}

TEST(ServeEngine, CrashRecoveryResumesToABitwiseIdenticalVolume)
{
    // Reference: an uninterrupted run of the spec.
    JobSpec spec = small_spec();
    spec.phantom_seed = 5;
    const auto ref_spool = fresh_dir("engine_ref");
    Volume reference;
    {
        Engine engine(engine_config(ref_spool));
        engine.start();
        const SubmitResult r = engine.submit(spec);
        ASSERT_TRUE(r.accepted);
        const JobStatus st = engine.wait(r.id, 60.0);
        ASSERT_EQ(st.state, JobState::Done);
        reference = io::read_volume(st.output);
    }

    // Crash: stop the engine mid-job (stop() deliberately shares the
    // kill -9 recovery path — the job stays non-terminal in the journal).
    const auto spool = fresh_dir("engine_crash");
    JobId id = 0;
    {
        faults::ScopedPlan plan(faults::FaultPlan::parse(
            "source.load:kind=stall,delay=0.4,after=0,count=-1", 1));
        Engine engine(engine_config(spool));
        engine.start();
        const SubmitResult r = engine.submit(spec);
        ASSERT_TRUE(r.accepted);
        id = r.id;
        ASSERT_TRUE(eventually(20.0, [&] {
            return engine.status(id).completed_slabs >= 1;
        }));
        engine.stop();
        EXPECT_EQ(engine.status(id).state, JobState::Queued);  // requeued form
    }

    // Restart over the same spool: the journal replays, the job resumes
    // from its checkpointed slabs and the volume is bitwise identical.
    Engine engine(engine_config(spool));
    EXPECT_EQ(engine.recovered_jobs(), 1);
    engine.start();
    const JobStatus st = engine.wait(id, 60.0);
    ASSERT_EQ(st.state, JobState::Done);
    const Volume recovered = io::read_volume(st.output);
    ASSERT_EQ(recovered.count(), reference.count());
    const auto a = recovered.span();
    const auto b = reference.span();
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "voxel " << i << " differs after crash recovery";
    }
}

TEST(ServeEngine, RecoveryRepricesASubmitOnlyJournal)
{
    // A daemon that died between Submit and Accept left a spec with no
    // verdict: recovery re-prices it through the same admission arithmetic
    // and runs it to completion.
    const auto spool = fresh_dir("engine_reprice");
    std::filesystem::create_directories(spool);
    {
        Journal j(spool / "journal.xjl");
        j.append(RecordType::Submit, 7, encode_spec(small_spec()));
    }
    Engine engine(engine_config(spool));
    EXPECT_EQ(engine.recovered_jobs(), 1);
    engine.start();
    const JobStatus st = engine.wait(7, 60.0);
    EXPECT_EQ(st.state, JobState::Done);
    // The restored id keeps later submissions collision-free.
    EXPECT_GT(engine.submit(small_spec()).id, 7u);
}

TEST(ServeEngine, JournalFaultRejectionsAreSeedDeterministic)
{
    // A probabilistic throw plan on serve.journal.append makes some
    // submissions fail durably ("fault"); the same seed must produce the
    // same accept/reject pattern — chaos runs are replayable.
    const auto run = [](const std::filesystem::path& spool) {
        faults::ScopedPlan plan(faults::FaultPlan::parse(
            "serve.journal.append:kind=throw,p=0.4", 42));
        Engine engine(engine_config(spool));  // never started: admission only
        std::vector<std::string> verdicts;
        for (int i = 0; i < 8; ++i) {
            const SubmitResult r = engine.submit(small_spec());
            verdicts.push_back(r.accepted ? "ok" : r.reason);
        }
        return verdicts;
    };
    const auto first = run(fresh_dir("engine_seed_a"));
    const auto second = run(fresh_dir("engine_seed_b"));
    EXPECT_EQ(first, second);
    EXPECT_NE(std::count(first.begin(), first.end(), "fault"), 0)
        << "plan never fired; the test would be vacuous";
    EXPECT_NE(std::count(first.begin(), first.end(), "ok"), 0);
}

TEST(ServeEngine, SubmitAfterStopIsRejected)
{
    const auto spool = fresh_dir("engine_stopped");
    Engine engine(engine_config(spool));
    engine.start();
    engine.stop();
    const SubmitResult r = engine.submit(small_spec());
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.reason, "stopping");
}

}  // namespace
}  // namespace xct::serve
