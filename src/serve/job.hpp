#pragma once
// Job model of the reconstruction daemon (DESIGN.md §3k).
//
// A job is one whole-volume FDK reconstruction of a deterministic
// synthetic source: the spec pins the geometry, the phantom, the batch
// count and the per-job device budget, so an identical spec reconstructs
// an identical volume on any run — the property the crash-recovery proof
// (journal replay -> bitwise-identical outputs) rests on.

#include <cstdint>
#include <string>

#include "core/geometry.hpp"

namespace xct::serve {

/// Monotonic per-daemon job identifier (journal-durable).
using JobId = std::uint64_t;

/// Scheduling class.  Higher runs first; the shedder only ever drops
/// expired work, lowest class first.
enum class Priority { Low = 0, Normal = 1, High = 2 };

const char* to_string(Priority p);
/// Parses "low"/"normal"/"high"; throws std::invalid_argument otherwise.
Priority priority_from(const std::string& s);

/// Job lifecycle.  Queued/Running are live; everything else is terminal.
///
///   Queued ----> Running ----> Done
///     |  \          \-------> Cancelled / Failed
///     |   \-------> Cancelled / Shed
///     \----[admission]------> Rejected
enum class JobState {
    Queued,
    Running,
    Done,
    Cancelled,
    Rejected,
    Shed,
    Failed,
};

const char* to_string(JobState s);
bool is_terminal(JobState s);

/// What a client submits.
struct JobSpec {
    CbctGeometry geometry;
    /// 0: the 3D Shepp-Logan phantom; otherwise porous_bean(seed) — both
    /// analytic, so the source is bitwise-deterministic in the spec.
    std::uint64_t phantom_seed = 0;
    index_t batches = 8;                      ///< Nc of the rank pipeline
    std::size_t device_capacity = 64u << 20;  ///< this job's device ask [bytes]
    Priority priority = Priority::Normal;
    std::string tenant = "default";           ///< fair-share accounting key
    /// Submit-to-finish budget in seconds; 0 means no deadline, negative
    /// is rejected at admission as already expired.  The remaining budget
    /// at start time propagates into the pipeline watchdog; a deadline
    /// that expires while the job is still queued sheds it instead of
    /// running it.
    double deadline_s = 0.0;
    /// Final .vol path; empty uses <spool>/out/job-<id>.vol.  Streamed
    /// slab by slab into a temp file and published atomically
    /// (io::VolumeWriter's rename) on success only.
    std::string output;
};

/// One job's externally visible status (the `status` API response).
struct JobStatus {
    JobId id = 0;
    JobState state = JobState::Queued;
    std::string tenant;
    Priority priority = Priority::Normal;
    std::string reason;            ///< reject / shed / fail detail ("" otherwise)
    double progress = 0.0;         ///< completed_slabs / total_slabs in [0, 1]
    index_t total_slabs = 0;
    index_t completed_slabs = 0;
    double predicted_s = 0.0;      ///< admission's perfmodel runtime estimate
    std::uint64_t device_bytes = 0;  ///< admission's priced device requirement
    std::string output;            ///< final volume path (Done jobs)
};

}  // namespace xct::serve
