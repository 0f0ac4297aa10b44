#pragma once
// Per-thread scratch-buffer pools for hot-path temporaries (DESIGN.md §3e).
//
// The filtering and back-projection hot paths need short-lived working
// buffers (a padded FFT row, a voxel-row accumulator, a reduce staging
// area).  Allocating them per call puts the allocator — and its lock — on
// the per-row path; the paper's throughput argument assumes those costs
// are amortised away.  scratch::Buffer<T> leases a buffer from a
// thread-local free list and returns it on destruction, so steady-state
// hot loops touch the heap zero times (asserted in tests via the
// heap_events() hook).
//
// Lifetime rules (the contract tests rely on):
//   * a Buffer must not outlive the thread that acquired it — the pool it
//     returns to is thread-local;
//   * contents are UNSPECIFIED on acquisition (previous lease's data or
//     zeros); callers must initialise what they read;
//   * pools keep at most kMaxPooled buffers per (thread, T) and drop the
//     rest, bounding idle memory;
//   * heap_events() counts every acquisition that had to grow or allocate
//     backing storage (process-wide, relaxed) — a warm loop's delta is 0.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace xct::scratch {

namespace detail {

inline std::atomic<std::uint64_t> g_heap_events{0};

inline constexpr std::size_t kMaxPooled = 8;

template <typename T>
struct FreeList {
    std::vector<std::vector<T>> entries;
};

template <typename T>
inline FreeList<T>& free_list()
{
    thread_local FreeList<T> list;
    return list;
}

}  // namespace detail

/// Process-wide count of pool acquisitions that touched the heap (fresh
/// backing storage or capacity growth).  Relaxed ordering: the test hook
/// only compares deltas around quiesced sections.
inline std::uint64_t heap_events()
{
    return detail::g_heap_events.load(std::memory_order_relaxed);
}

/// Report a heap allocation made by a subsystem with its own pooling
/// (e.g. the flight recorder's cold-path ring / intern growth), so the
/// zero-alloc-when-warm assertion covers it through the same counter.
inline void note_heap_event()
{
    detail::g_heap_events.fetch_add(1, std::memory_order_relaxed);
}

/// RAII lease of a thread-local pooled buffer of `n` elements of T.
/// Move-only; releases back to the acquiring thread's pool on destruction.
template <typename T>
class Buffer {
public:
    explicit Buffer(std::size_t n)
    {
        auto& list = detail::free_list<T>();
        if (!list.entries.empty()) {
            store_ = std::move(list.entries.back());
            list.entries.pop_back();
        }
        if (store_.capacity() < n)
            detail::g_heap_events.fetch_add(1, std::memory_order_relaxed);
        store_.resize(n);
    }

    ~Buffer()
    {
        if (store_.capacity() == 0) return;  // moved-from
        auto& list = detail::free_list<T>();
        if (list.entries.size() < detail::kMaxPooled) list.entries.push_back(std::move(store_));
    }

    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;
    Buffer(Buffer&& other) noexcept : store_(std::move(other.store_)) {}
    Buffer& operator=(Buffer&&) = delete;

    T* data() { return store_.data(); }
    const T* data() const { return store_.data(); }
    std::size_t size() const { return store_.size(); }
    std::span<T> span() { return store_; }
    std::span<const T> span() const { return store_; }
    T& operator[](std::size_t i) { return store_[i]; }
    const T& operator[](std::size_t i) const { return store_[i]; }

private:
    std::vector<T> store_;
};

/// std::allocator whose value-less construct() leaves a trivial T as is
/// (construction from a value is allocator_traits' default), so
/// std::vector<T, DefaultInit<T>> grows without zero-filling and each new
/// page is first touched by the consumer's own write.
template <typename T>
struct DefaultInit : std::allocator<T> {
    static_assert(std::is_trivially_default_constructible_v<T>);
    template <typename U>
    struct rebind {
        using other = DefaultInit<U>;
    };
    template <typename U>
    void construct(U*) noexcept {}
};

}  // namespace xct::scratch
