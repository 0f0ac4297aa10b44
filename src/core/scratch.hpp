#pragma once
// Host memory for the hot paths (DESIGN.md §3e): per-thread scratch-buffer
// pools for temporaries, and scratch::Pages, the one allocator of the bulk
// float storage (volumes, stacks, textures, device buffers, staging).
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

#include <algorithm>
#include <atomic>
#include <bit>
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

/// One transparent huge page.  Storage of at least this many bytes is a
/// mapping of its own (see Pages); smaller storage is heap memory.
inline constexpr std::size_t kPageBytes = std::size_t{2} << 20;

namespace detail {

// AddressSanitizer cannot see into a mapping: an instrumented translation
// unit takes every size from std::allocator, keeping redzones and
// use-after-free checks on every buffer.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kMapLarge = false;
#else
inline constexpr bool kMapLarge = true;
#endif

/// A fresh anonymous mapping of `bytes` rounded up to whole kPageBytes,
/// kPageBytes-aligned and advised MADV_HUGEPAGE (pages.cpp).  The kernel
/// zeroes each page on first touch.  Throws std::bad_alloc.
void* map_pages(std::size_t bytes);
/// Return a map_pages(bytes) mapping to the kernel.
void unmap_pages(void* p, std::size_t bytes) noexcept;

}  // namespace detail

/// The allocator of the bulk float storage.  Storage of at least
/// kPageBytes is a fresh 2 MiB-aligned mapping advised MADV_HUGEPAGE and
/// goes straight back to the kernel when freed: a first touch faults in
/// a kernel-zeroed 2 MiB page where heap memory faults 4 KiB at a time.
/// Smaller storage comes from std::allocator.  Value-less construct()
/// leaves a trivial T as is on both paths (construction from a value is
/// allocator_traits' default), so std::vector<T, Pages<T>>(n) writes
/// nothing; filled() below is the zero-aware way to give it a value.
template <typename T>
struct Pages {
    static_assert(std::is_trivially_default_constructible_v<T>);
    using value_type = T;

    Pages() noexcept = default;
    template <typename U>
    Pages(const Pages<U>&) noexcept
    {
    }

    /// True when storage for `n` elements is a fresh mapping, so it reads
    /// zero until written.
    static constexpr bool maps(std::size_t n) noexcept
    {
        return detail::kMapLarge && n * sizeof(T) >= kPageBytes;
    }

    T* allocate(std::size_t n)
    {
        if (maps(n)) return static_cast<T*>(detail::map_pages(n * sizeof(T)));
        return std::allocator<T>{}.allocate(n);
    }
    void deallocate(T* p, std::size_t n) noexcept
    {
        if (maps(n))
            detail::unmap_pages(p, n * sizeof(T));
        else
            std::allocator<T>{}.deallocate(p, n);
    }

    template <typename U>
    void construct(U*) noexcept
    {
    }

    template <typename U>
    bool operator==(const Pages<U>&) const noexcept
    {
        return true;
    }
};

/// `n` copies of `value` in Pages storage.  The fill is skipped only
/// where the kernel already wrote it: a fresh mapping and +0.0f (not
/// -0.0f).  Every other case writes, as std::vector's fill constructor
/// would.
inline std::vector<float, Pages<float>> filled(std::size_t n, float value)
{
    std::vector<float, Pages<float>> v(n);
    if (!Pages<float>::maps(n) || std::bit_cast<std::uint32_t>(value) != 0)
        std::fill(v.begin(), v.end(), value);
    return v;
}

}  // namespace xct::scratch
