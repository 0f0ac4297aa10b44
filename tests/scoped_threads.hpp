#pragma once
// Test helper: pin the OpenMP team size for one scope, restoring the
// previous size on exit.  Without OpenMP every parallel loop already runs
// on the calling thread, and this is a no-op.
#ifdef _OPENMP
#include <omp.h>
#endif

namespace xct::testutil {

class ScopedThreads {
public:
    explicit ScopedThreads([[maybe_unused]] int n)
    {
#ifdef _OPENMP
        omp_set_num_threads(n);
#endif
    }
    ~ScopedThreads()
    {
#ifdef _OPENMP
        omp_set_num_threads(saved_);
#endif
    }
    ScopedThreads(const ScopedThreads&) = delete;
    ScopedThreads& operator=(const ScopedThreads&) = delete;

private:
#ifdef _OPENMP
    int saved_ = omp_get_max_threads();
#endif
};

}  // namespace xct::testutil
