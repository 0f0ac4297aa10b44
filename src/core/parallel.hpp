#pragma once
// The process-wide worker pool every data-parallel loop runs on
// (DESIGN.md §3e, "Threading model").
//
// Each stage thread of each rank pipeline and each serve session submits
// its loops to the same width() - 1 workers, so concurrent loops share
// the cores instead of each opening a team as wide as the machine.  The
// submitting thread takes part in its own job and drains it alone when no
// worker is free, or alive (a forked child has none), so every job
// finishes and nested calls complete.  Chunks come from an atomic cursor;
// idle workers block, they never spin.
//
// A result cannot depend on the width when each body writes only what its
// own index owns, or folds fixed chunks that the caller merges in order
// afterwards: every caller keeps that contract, and the *AtAnyThreadCount
// tests pin it.  Scratch belongs to the call, not to a worker: the caller
// leases width() x per-slot elements from its own thread's scratch pool
// and a body uses the slice of its `slot`, so which worker runs which
// chunk never changes what the heap sees.  Bodies make no telemetry or
// fault calls, and workers carry no rank tag.

#include <algorithm>
#include <cstddef>

#include "core/types.hpp"

namespace xct::parallel {

/// Participants a job submitted from the calling thread may use: the CPU
/// count of the process's affinity mask, capped by OMP_NUM_THREADS when
/// that is set and by the calling thread's cap_width().
std::size_t width();

/// Cap width() for jobs the calling thread submits (0: no cap) and return
/// the previous cap — the thread-count invariance tests' pin.
std::size_t cap_width(std::size_t n);

namespace detail {
using ChunkFn = void (*)(void* body, index_t chunk, std::size_t slot);
/// Run chunks [0, chunks) on at most `slots` participants, the caller as
/// slot 0, and rethrow the first exception a chunk threw.
void run(index_t chunks, std::size_t slots, ChunkFn fn, void* body);
}  // namespace detail

/// Call body(i, slot) for every i in [0, n), handed out in chunks of
/// `grain` consecutive indices; slot < width() names the participant.
/// Each chunk runs a copy of `body`: what a body captures by value is then
/// a local of the chunk's loop, which the compiler keeps in registers even
/// across byte or vector stores (those may alias any object reached
/// through a pointer).  The first exception a body throws stops further
/// chunks from starting and is rethrown here after every participant has
/// left.  A single chunk (or width() == 1) runs inline on the caller as
/// slot 0, on one copy.
template <typename Body>
void parallel_for(index_t n, index_t grain, Body&& body)
{
    if (n <= 0) return;
    grain = std::max<index_t>(grain, 1);
    const index_t chunks = (n - 1) / grain + 1;
    const std::size_t slots = std::min(width(), static_cast<std::size_t>(chunks));
    const auto range = [&](index_t begin, index_t end, std::size_t slot) {
        auto local = body;
        for (index_t i = begin; i < end; ++i) local(i, slot);
    };
    if (slots == 1) return range(0, n, 0);
    auto chunk = [&](index_t c, std::size_t slot) {
        range(c * grain, std::min(n, (c + 1) * grain), slot);
    };
    detail::run(
        chunks, slots,
        [](void* f, index_t c, std::size_t slot) { (*static_cast<decltype(chunk)*>(f))(c, slot); },
        &chunk);
}

}  // namespace xct::parallel
