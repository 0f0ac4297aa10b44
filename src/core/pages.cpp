#include <sys/mman.h>

#include <limits>

#include "core/scratch.hpp"

namespace xct::scratch::detail {

namespace {
std::size_t whole_pages(std::size_t bytes)
{
    return (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
}
}  // namespace

void* map_pages(std::size_t bytes)
{
    // No mapping can be that large, and rounding it up would wrap.
    if (bytes > static_cast<std::size_t>(std::numeric_limits<std::ptrdiff_t>::max()))
        throw std::bad_alloc();
    // Map one page more than needed, so an aligned start lies inside, and
    // hand the slack on either side back.
    const std::size_t len = whole_pages(bytes);
    std::size_t space = len + kPageBytes;
    void* const base =
        ::mmap(nullptr, space, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    void* start = base;
    std::align(kPageBytes, len, start, space);  // cannot fail: a page of slack
    char* const lo = static_cast<char*>(base);
    char* const p = static_cast<char*>(start);
    const std::size_t head = static_cast<std::size_t>(p - lo);
    if (head > 0) ::munmap(lo, head);
    if (head < kPageBytes) ::munmap(p + len, kPageBytes - head);
    // EINVAL on a kernel without transparent huge pages: the mapping then
    // faults 4 KiB at a time, still kernel-zeroed.
    ::madvise(p, len, MADV_HUGEPAGE);
    return p;
}

void unmap_pages(void* p, std::size_t bytes) noexcept
{
    ::munmap(p, whole_pages(bytes));
}

}  // namespace xct::scratch::detail
