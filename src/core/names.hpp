#pragma once
// Central registry of every observability and fault-injection name in the
// tree (DESIGN.md §3d).
//
// Metric names, trace span/category names and fault-site names are
// string-keyed: a typo at one call site silently forks a metric or makes
// a fault plan never fire.  This header is the single source of truth —
// tools/xct_lint enforces (rule `names`) that every string literal passed
// to telemetry::Registry::{counter,gauge,histogram}, ScopedTrace,
// flight::{record,dump_postmortem}, fleet_observe,
// faults::{check,should_fail}, sim::Device::gate and io::Pfs::guarded
// either appears verbatim below or extends one of the registered
// prefixes (entries ending in '.').
//
// To add a name: declare the constant here, use it at the call site, and
// document non-obvious units in the comment.  Naming scheme (README
// "Observability"): dot-separated `<subsystem>.<object>.<unit>`.

namespace xct::names {

// ---- trace categories (FlightEvent::cat, one per subsystem) -------------
inline constexpr const char* kCatPipeline = "pipeline";
inline constexpr const char* kCatMinimpi = "minimpi";
inline constexpr const char* kCatSim = "sim";
inline constexpr const char* kCatIo = "io";
inline constexpr const char* kCatFilter = "filter";
inline constexpr const char* kCatFaults = "faults";
inline constexpr const char* kCatIntegrity = "integrity";
inline constexpr const char* kCatFlight = "flight";
inline constexpr const char* kCatBench = "bench";  ///< micro-bench probe spans

// ---- trace span names ---------------------------------------------------
inline constexpr const char* kSpanReduceSum = "reduce_sum";
inline constexpr const char* kSpanAllreduceSum = "allreduce_sum";
inline constexpr const char* kSpanReduceSumParts = "reduce_sum_parts";
inline constexpr const char* kSpanReduceSumHierarchical = "reduce_sum_hierarchical";
inline constexpr const char* kSpanBcast = "bcast";
inline constexpr const char* kSpanGather = "gather";
inline constexpr const char* kSpanFilterApply = "apply";
inline constexpr const char* kSpanRetry = "retry";
inline constexpr const char* kSpanCkptSave = "ckpt.save";
inline constexpr const char* kSpanCkptRestore = "ckpt.restore";
inline constexpr const char* kSpanTakeover = "takeover";
inline constexpr const char* kSpanH2d = "h2d";  ///< modelled host->device copy (cat sim)
inline constexpr const char* kSpanD2h = "d2h";  ///< modelled device->host copy (cat sim)
inline constexpr const char* kSpanPfsLoad = "pfs.load";    ///< modelled PFS read (cat io)
inline constexpr const char* kSpanPfsStore = "pfs.store";  ///< modelled PFS write (cat io)
inline constexpr const char* kSpanVerify = "verify";   ///< one digest verification
inline constexpr const char* kSpanFlightDump = "dump";  ///< one post-mortem ring dump
inline constexpr const char* kSpanBenchProbe = "probe";  ///< flight-overhead probe span

// ---- pipeline stage spans (cat kCatPipeline; pipeline::Stage) ------------
// Also the <stage> of kMetricPipelineStagePrefix, e.g.
// "pipeline.stage.bp.seconds".  "mpi" is the reduce stage of Fig. 9.
inline constexpr const char* kStageRestore = "restore";  ///< checkpointed slab replay
inline constexpr const char* kStageLoad = "load";
inline constexpr const char* kStageFilter = "filter";
inline constexpr const char* kStagePrefetch = "prefetch";  ///< band staging (gather + decode)
inline constexpr const char* kStageBp = "bp";
inline constexpr const char* kStageMpi = "mpi";
inline constexpr const char* kStageStore = "store";

// ---- metric names (registry counters / gauges / histograms) -------------
inline constexpr const char* kMetricFaultsInjected = "faults.injected";
inline constexpr const char* kMetricFaultsInjectedPrefix = "faults.injected.";  ///< + site
inline constexpr const char* kMetricFaultsRetryAttempts = "faults.retry.attempts";
inline constexpr const char* kMetricFaultsRetryExhausted = "faults.retry.exhausted";
inline constexpr const char* kMetricFaultsRetryDelaySeconds = "faults.retry.delay_seconds";
inline constexpr const char* kMetricFaultsRetryPrefix = "faults.retry.";  ///< + site + suffix
inline constexpr const char* kMetricFaultsCkptSaved = "faults.checkpoint.saved";
inline constexpr const char* kMetricFaultsCkptRestored = "faults.checkpoint.restored";
inline constexpr const char* kMetricFaultsDegradedRanks = "faults.degraded.ranks";
inline constexpr const char* kMetricFaultsDegradedTakeovers = "faults.degraded.takeovers";
inline constexpr const char* kMetricFaultsDegradedSlabs = "faults.degraded.slabs";
// integrity.* (src/integrity): digests = checksums computed, verified =
// checks that passed, detected = mismatches caught (by site).
inline constexpr const char* kMetricIntegrityDigests = "integrity.digests";
inline constexpr const char* kMetricIntegrityDigestBytes = "integrity.digest.bytes";
inline constexpr const char* kMetricIntegrityVerified = "integrity.verified";
inline constexpr const char* kMetricIntegrityDetected = "integrity.detected";
inline constexpr const char* kMetricIntegrityDetectedPrefix = "integrity.detected.";  ///< + site
// watchdog.* (src/integrity/watchdog): supervised = sections entered,
// expired = deadline overruns observed (by section name).
inline constexpr const char* kMetricWatchdogSupervised = "watchdog.supervised";
inline constexpr const char* kMetricWatchdogExpired = "watchdog.expired";
inline constexpr const char* kMetricWatchdogExpiredPrefix = "watchdog.expired.";  ///< + what
inline constexpr const char* kMetricFftTransforms = "fft.transforms";
inline constexpr const char* kMetricFftTransformsF32 = "fft.transforms.f32";
inline constexpr const char* kMetricFftPlanHits = "fft.plan.hits";
inline constexpr const char* kMetricFftPlanMisses = "fft.plan.misses";
inline constexpr const char* kMetricFilterApplyCalls = "filter.apply.calls";
inline constexpr const char* kMetricFilterRowsFiltered = "filter.rows_filtered";
inline constexpr const char* kMetricPipelineStagePrefix = "pipeline.stage.";  ///< + stage + unit
inline constexpr const char* kMetricMinimpiPrefix = "minimpi.";  ///< + op + ".calls"/bytes
inline constexpr const char* kMetricIoPfsPrefix = "io.pfs.";     ///< + op + unit
inline constexpr const char* kMetricSimPrefix = "sim.";          ///< + dir + ".bytes"/transfers
// Well-known expansions of the prefixes above, for readers (benches):
inline constexpr const char* kMetricSimH2dBytes = "sim.h2d.bytes";
inline constexpr const char* kMetricSimH2dTransfers = "sim.h2d.transfers";
inline constexpr const char* kMetricSimD2hBytes = "sim.d2h.bytes";
// process.* (telemetry::record_process_memory, xct_recon --metrics): the
// run's own memory.  minor_faults = pages first touched (getrusage
// ru_minflt; a 4 KiB or a 2 MiB page each), peak_rss_mib = resident
// high-water mark in MiB (VmHWM of /proc/self/status).
inline constexpr const char* kMetricProcessMinorFaults = "process.minor_faults";
inline constexpr const char* kMetricProcessPeakRssMib = "process.peak_rss_mib";
// flight.* (src/telemetry/flight): always-on post-mortem ring recorder.
// dumps = post-mortem traces written (by reason: watchdog, integrity,
// signal, manual), threads = rings ever registered (live + retired).
inline constexpr const char* kMetricFlightDumps = "flight.dumps";
inline constexpr const char* kMetricFlightDumpsPrefix = "flight.dumps.";  ///< + reason
inline constexpr const char* kMetricFlightThreads = "flight.threads";
// fleet.* (src/telemetry/report): cross-rank aggregation of per-rank
// stage timings into log-bucketed histograms; report.cpp reads these
// back out as fleet p50/p95/p99.  The histograms are
// fleet.stage.{load,filter,prefetch,bp,reduce,store,wall}.seconds: the
// six pipeline stages (kStage* above, the reduce stage under its report
// name) and the whole-rank wall clock.
inline constexpr const char* kMetricFleetStagePrefix = "fleet.stage.";  ///< + stage + ".seconds"
inline constexpr const char* kMetricFleetRanks = "fleet.ranks";  ///< ranks aggregated
inline constexpr const char* kStageReduce = "reduce";  ///< report/fleet name of kStageMpi
// Pseudo-stage fed to fleet_observe next to the six pipeline stages.
inline constexpr const char* kStageWall = "wall";  ///< whole-rank wall clock
// soak.* (src/soak): fleet soak harness accounting.  jobs = jobs driven to
// a terminal state, degraded/wedged split that total; stall twins mirror
// the injected-vs-watchdog-detected stall model of the event tier; the
// latency histogram holds per-job event-sim service latencies (seconds).
inline constexpr const char* kMetricSoakJobs = "soak.jobs";
inline constexpr const char* kMetricSoakJobsDegraded = "soak.jobs.degraded";
inline constexpr const char* kMetricSoakJobsWedged = "soak.jobs.wedged";
inline constexpr const char* kMetricSoakStallInjected = "soak.stall.injected";
inline constexpr const char* kMetricSoakStallDetected = "soak.stall.detected";
inline constexpr const char* kMetricSoakLatencySeconds = "soak.job.latency_seconds";
// band.* (src/io/band_codec): q8 differential band transport codec.
// bytes_in counts fp32 payload bytes entering encode_band, bytes_out the
// wire bytes leaving it — their ratio is the transport compression the
// BENCH trend gate enforces (transport.q8_bytes_over_raw).
inline constexpr const char* kMetricBandEncodes = "band.encodes";
inline constexpr const char* kMetricBandEncodeBytesIn = "band.encode.bytes_in";
inline constexpr const char* kMetricBandEncodeBytesOut = "band.encode.bytes_out";
inline constexpr const char* kMetricBandDecodes = "band.decodes";
// autotune.* (src/autotune): plans = planner invocations, candidates =
// feasible lattice points scored by the Eq. 13-17 event simulation.
inline constexpr const char* kMetricAutotunePlans = "autotune.plans";
inline constexpr const char* kMetricAutotuneCandidates = "autotune.candidates";
// serve.* (src/serve): the reconstruction daemon.  submitted counts every
// submit seen, accepted the ones admission let in; rejected/shed make the
// overload policy observable (rejected at admission by reason, shed =
// accepted-then-dropped expired low-priority work); recovered counts jobs
// requeued from the journal at restart.  The latency histogram holds
// accepted-job submit->terminal wall seconds — the p99 the overload proof
// checks against the perfmodel tail bound.
inline constexpr const char* kMetricServeSubmitted = "serve.submitted";
inline constexpr const char* kMetricServeAccepted = "serve.accepted";
inline constexpr const char* kMetricServeRejected = "serve.reject";
inline constexpr const char* kMetricServeRejectedPrefix = "serve.reject.";  ///< + reason
inline constexpr const char* kMetricServeShed = "serve.shed";
inline constexpr const char* kMetricServeCompleted = "serve.completed";
inline constexpr const char* kMetricServeCancelled = "serve.cancelled";
inline constexpr const char* kMetricServeFailed = "serve.failed";
inline constexpr const char* kMetricServeRecovered = "serve.recovered";
inline constexpr const char* kMetricServeLatencySeconds = "serve.job.latency_seconds";

// ---- flight post-mortem reasons (flight::dump_postmortem) ---------------
// Expand kMetricFlightDumpsPrefix, e.g. "flight.dumps.watchdog".
inline constexpr const char* kFlightReasonWatchdog = "watchdog";
inline constexpr const char* kFlightReasonIntegrity = "integrity";
inline constexpr const char* kFlightReasonSignal = "signal";

// ---- fault-injection sites (FaultPlan spec keys) ------------------------
inline constexpr const char* kSitePfsLoad = "pfs.load";
inline constexpr const char* kSitePfsStore = "pfs.store";
inline constexpr const char* kSiteSimH2d = "sim.h2d";
inline constexpr const char* kSiteSimD2h = "sim.d2h";
inline constexpr const char* kSiteMinimpiBarrier = "minimpi.barrier";
inline constexpr const char* kSiteMinimpiReduceSum = "minimpi.reduce_sum";
inline constexpr const char* kSiteMinimpiAllreduceSum = "minimpi.allreduce_sum";
inline constexpr const char* kSiteMinimpiReduceSumParts = "minimpi.reduce_sum_parts";
inline constexpr const char* kSiteMinimpiReduceSumHierarchical = "minimpi.reduce_sum_hierarchical";
inline constexpr const char* kSiteMinimpiBcast = "minimpi.bcast";
inline constexpr const char* kSiteMinimpiGather = "minimpi.gather";
inline constexpr const char* kSiteSourceLoad = "source.load";
inline constexpr const char* kSiteRankDropout = "rank.dropout";
inline constexpr const char* kSiteCheckpointLoad = "checkpoint.load";
inline constexpr const char* kSiteRankStall = "rank.stall";  ///< health-probe stall point
/// q8 wire payload in transit between encode and dequantisation — the
/// pfs->host->device hop the compressed band transport rides.
inline constexpr const char* kSiteBandDecode = "band.decode";
/// Serve daemon chaos hooks: journal.append gates every durable job-state
/// record (a fired fault = the append failed before reaching disk),
/// accept gates admission itself (a fired fault = submission rejected
/// with reason "fault" instead of wedging the socket thread).
inline constexpr const char* kSiteServeJournalAppend = "serve.journal.append";
inline constexpr const char* kSiteServeAccept = "serve.accept";

// ---- watchdog-supervised section names (Watchdog::supervise) ------------
// Expand kMetricWatchdogExpiredPrefix, e.g. "watchdog.expired.source.load".
inline constexpr const char* kWatchSourceLoad = "source.load";
inline constexpr const char* kWatchReduce = "reduce";
inline constexpr const char* kWatchHealthProbe = "health_probe";

}  // namespace xct::names
