#pragma once
// Test helper: cap the width of the parallel::parallel_for jobs the
// calling thread submits for one scope, restoring the previous cap on
// exit.  A cap above the process width leaves the width as it is.
#include <cstddef>

#include "core/parallel.hpp"

namespace xct::testutil {

class ScopedThreads {
public:
    explicit ScopedThreads(int n) : saved_(parallel::cap_width(static_cast<std::size_t>(n))) {}
    ~ScopedThreads() { parallel::cap_width(saved_); }
    ScopedThreads(const ScopedThreads&) = delete;
    ScopedThreads& operator=(const ScopedThreads&) = delete;

private:
    std::size_t saved_;
};

}  // namespace xct::testutil
