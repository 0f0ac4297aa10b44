#pragma once
// Trace-span capture across every subsystem of one process.
//
// Every span goes to the always-on flight recorder (telemetry/flight.hpp),
// the process's one span store.  A span carries a *category* (the
// subsystem: "pipeline", "minimpi", "sim", "io", "filter"), a *rank* (the
// minimpi world rank, see set_current_rank) and a *lane* (the ring id),
// all on ONE steady clock — so a distributed run's trace shows all ranks
// of all groups on a single timebase.  Readers take the spans of a time
// window (flight::snapshot / flight::dump) and export them as Chrome
// trace-event JSON (telemetry/export.hpp), which opens directly in
// Perfetto / chrome://tracing with pid = rank and tid = lane.
//
// Cost model: one clock read at each end of a span plus one lock-free,
// allocation-free ring-slot store — cheap at span granularity (batches,
// collectives, transfers), which is why the instrumentation sits at those
// boundaries and not inside per-voxel loops.

#include <cstdint>

#include "core/ids.hpp"
#include "core/types.hpp"
#include "telemetry/flight.hpp"

namespace xct::telemetry {

/// The per-thread rank attribution: minimpi::run() tags each rank thread
/// with its world rank, and recon::run_rank() propagates the tag to its
/// stage threads, so low-level modules (sim::Device, io::Pfs, fft) can
/// attribute work without threading a rank id through every call.
RankId current_rank();
void set_current_rank(RankId rank);

/// RAII span recorded into the calling thread's flight ring (< 2% on the
/// pipeline clean path, asserted by the bench overhead section).  `cat`
/// and `name` must be process-lifetime strings (literals / names::
/// constants) — the ring stores the pointers.
class ScopedTrace {
public:
    ScopedTrace(const char* cat, const char* name, index_t item = -1, std::uint64_t bytes = 0)
        : cat_(cat), name_(name), item_(item), bytes_(bytes), begin_abs_(flight::wall_now())
    {
        flight::warm();  // first span on a thread acquires its ring HERE
    }
    ~ScopedTrace() { flight::record(cat_, name_, begin_abs_, flight::wall_now(), item_, bytes_); }
    ScopedTrace(const ScopedTrace&) = delete;
    ScopedTrace& operator=(const ScopedTrace&) = delete;

private:
    const char* cat_;
    const char* name_;
    index_t item_;
    std::uint64_t bytes_;
    double begin_abs_;
};

}  // namespace xct::telemetry
