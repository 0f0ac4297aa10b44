#pragma once
// In-memory span log of one benchmark run (the traced run only).
//
// Every span records its name, start, end, parent span and the rep it
// belongs to; the tree is rep -> spawned child or layer call -> nested
// calls.  Spans stay in memory and are written once, as Chrome trace-event
// JSON (open in ui.perfetto.dev), when the run ends.  A layer's self time
// is its duration minus the time its child spans cover.  xct_bench is
// single-threaded: open()/close() spans nest strictly; work that overlaps
// (concurrent serve jobs) is added after the fact with add(), on its own
// lane.  With the log disabled (untraced runs) every call does nothing.

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace xct::bench {

class SpanLog {
public:
    explicit SpanLog(bool enabled);

    bool enabled() const { return enabled_; }

    /// Open a span under the innermost open one; returns its id (-1 when
    /// the log is disabled).
    index_t open(std::string name);
    /// Close span `id` (and any still-open spans nested inside it).
    void close(index_t id);
    /// Add a finished span [begin, end) (now_s() clock) under `parent`
    /// (-1: the innermost open span) on Chrome-trace lane `lane`.
    index_t add(std::string name, double begin, double end, index_t parent = -1, index_t lane = 1);
    /// Rep id stamped on spans opened from now on (-1: not in a rep).
    void set_rep(index_t rep) { rep_ = rep; }

    /// Chrome trace-event JSON of every closed span.
    void write_chrome(const std::filesystem::path& path) const;
    /// Self seconds summed per span name, largest first.
    std::vector<std::pair<std::string, double>> self_seconds() const;

private:
    struct Span {
        std::string name;
        double begin = 0.0;
        double end = -1.0;  ///< < begin while open
        index_t parent = -1;
        index_t rep = -1;
        index_t lane = 1;
    };
    bool enabled_;
    double epoch_;
    index_t rep_ = -1;
    std::vector<Span> spans_;
    std::vector<index_t> open_;
};

/// RAII span: open on construction, close on destruction.
class SpanScope {
public:
    SpanScope(SpanLog& log, std::string name) : log_(log), id_(log.open(std::move(name))) {}
    ~SpanScope() { log_.close(id_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    SpanLog& log_;
    index_t id_;
};

/// Monotonic seconds (steady clock) — the one clock every timing uses.
double now_s();

}  // namespace xct::bench
