#pragma once
// Stage timing for the end-to-end pipeline: the per-rank stage clock that
// every stage span adds to, and the Fig. 10-style overlap chart as ASCII.
//
// A stage span writes the flight ring once (telemetry/flight.hpp, the
// process's one span store) and adds its length to its rank's StageClock:
// fixed per-stage busy seconds, span counts and the makespan.  RankStats
// comes from the clock, never from the ring — a ring keeps only its last
// spans, and serve sessions run several ranks in one process at once.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"

namespace xct::pipeline {

/// The stages of one rank's pipeline (Fig. 9), plus the checkpoint replay.
enum class Stage { Restore, Load, Filter, Prefetch, Bp, Mpi, Store };
inline constexpr std::size_t kStageCount = 7;

/// Per-rank stage clock.  Lock-free and allocation-free: every stage
/// thread of a rank records into it concurrently.
class StageClock {
public:
    /// `epoch` (flight timebase) is where the makespan starts.
    explicit StageClock(double epoch = telemetry::flight::wall_now());

    /// Record the span [abs_begin, abs_end) (flight timebase) of `stage`
    /// working on batch `item`: one flight-ring store plus the sums.
    void record(Stage stage, index_t item, double abs_begin, double abs_end);

    double busy(Stage s) const { return busy_[index(s)].value(); }
    std::uint64_t spans(Stage s) const { return spans_[index(s)].value(); }
    /// End of the last span, in seconds since the epoch.
    double makespan() const;

    /// Add each stage that recorded spans to the metrics registry as
    /// `pipeline.stage.<stage>.seconds` and `.spans`.
    void publish() const;

private:
    static std::size_t index(Stage s) { return static_cast<std::size_t>(s); }

    double epoch_;  ///< set once in the constructor, read-only afterwards
    std::array<telemetry::Gauge, kStageCount> busy_;
    std::array<telemetry::Counter, kStageCount> spans_;
    std::atomic<double> last_end_;
};

/// RAII stage span: records [construction, destruction) of a scope.  A
/// null clock records nothing.
class ScopedSpan {
public:
    ScopedSpan(StageClock* clock, Stage stage, index_t item)
        : clock_(clock), stage_(stage), item_(item),
          begin_(clock ? telemetry::flight::wall_now() : 0.0)
    {
        if (clock) telemetry::flight::warm();  // first span on a thread acquires its ring HERE
    }
    ScopedSpan(StageClock& clock, Stage stage, index_t item) : ScopedSpan(&clock, stage, item) {}
    ~ScopedSpan()
    {
        if (clock_) clock_->record(stage_, item_, begin_, telemetry::flight::wall_now());
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    StageClock* clock_;
    Stage stage_;
    index_t item_;
    double begin_;
};

/// One bar of the Fig. 10 chart: `stage` busy over [begin, end) seconds.
struct StageSpan {
    std::string stage;
    double begin = 0.0;
    double end = 0.0;
};

/// Render an ASCII chart: one row per stage (in order of first
/// appearance), '#' where the stage is busy — the visual of Fig. 10.
/// `width` columns cover [0, latest end].
std::string render(const std::vector<StageSpan>& spans, index_t width = 72);

}  // namespace xct::pipeline
