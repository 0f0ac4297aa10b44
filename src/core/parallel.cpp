#include "core/parallel.hpp"

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/mutex.hpp"

namespace xct::parallel {
namespace {

std::size_t process_width()
{
    static const std::size_t w = [] {
        std::size_t n = std::max(1u, std::thread::hardware_concurrency());
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            n = static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
        // OpenMP's syntax: a count, or a comma list led by the outer count.
        if (const char* env = std::getenv("OMP_NUM_THREADS")) {
            char* end = nullptr;
            const long cap = std::strtol(env, &end, 10);
            if (end != env && cap > 0) n = std::min(n, static_cast<std::size_t>(cap));
        }
        return n;
    }();
    return w;
}

thread_local std::size_t t_cap = 0;

/// Set in a child forked from a process whose pool had started: the
/// workers did not survive the fork, and the child drains every job on
/// the calling thread without touching the inherited mutex.
std::atomic<bool> g_forked{false};

/// One parallel_for call.  It lives on the caller's stack; a worker
/// touches it only between enlisting and leaving, and the caller returns
/// only once every worker that enlisted has left.
struct Job {
    Job(detail::ChunkFn f, void* b, index_t n, std::size_t w) : fn(f), body(b), chunks(n), slots(w)
    {
    }

    const detail::ChunkFn fn;
    void* const body;
    const index_t chunks;
    const std::size_t slots;
    std::atomic<index_t> next{0};
    std::atomic<bool> failed{false};
    FirstError error;
    Mutex m{"core.parallel.job"};
    CondVar left;
    std::size_t joined XCT_GUARDED_BY(m) = 1;  ///< slots handed out; the caller holds 0
    std::size_t active XCT_GUARDED_BY(m) = 0;  ///< workers enlisted and not yet left

    bool exhausted() const
    {
        return failed.load(std::memory_order_relaxed) ||
               next.load(std::memory_order_relaxed) >= chunks;
    }

    void drain(std::size_t slot)
    {
        while (!failed.load(std::memory_order_relaxed)) {
            const index_t c = next.fetch_add(1, std::memory_order_relaxed);
            if (c >= chunks) return;
            try {
                fn(body, c, slot);
            } catch (...) {
                failed.store(true, std::memory_order_relaxed);
                error.capture();
            }
        }
    }
};

class Pool {
public:
    Pool()
    {
        pthread_atfork(nullptr, nullptr, [] { g_forked.store(true); });
        const std::size_t workers = process_width() - 1;
        threads_.reserve(workers);
        try {
            for (std::size_t i = 0; i < workers; ++i) threads_.emplace_back([this] { work(); });
        } catch (const std::system_error&) {
            // Out of threads: run with the workers that started, since
            // every caller drains its own job anyway.
        }
    }
    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;

    /// Offer `job` to the workers; false when none will ever take it.
    bool submit(Job& job) XCT_EXCLUDES(mu_)
    {
        if (g_forked.load()) return false;
        std::size_t wake = 0;
        {
            MutexLock lk(mu_);
            if (stop_) return false;
            open_.push_back(&job);
            wake = std::min(idle_, job.slots - 1);
        }
        for (; wake > 0; --wake) work_.notify_one();
        return true;
    }

    /// Take `job` off the open list, then wait until every worker that
    /// enlisted in it has left.
    void close(Job& job) XCT_EXCLUDES(mu_)
    {
        {
            MutexLock lk(mu_);
            std::erase(open_, &job);
        }
        UniqueLock lk(job.m);
        job.left.wait(lk, [&] {
            job.m.assert_held();
            return job.active == 0;
        });
    }

    /// Let the workers finish the jobs they are in, then join them
    /// (at exit).  A forked child's workers are not its own to join.
    void stop() XCT_EXCLUDES(mu_)
    {
        if (g_forked.load()) return;
        {
            MutexLock lk(mu_);
            stop_ = true;
        }
        work_.notify_all();
        for (std::thread& t : threads_) t.join();
        threads_.clear();
    }

private:
    void work() XCT_EXCLUDES(mu_)
    {
        std::size_t slot = 0;
        while (Job* job = enlist(slot)) {
            job->drain(slot);
            MutexLock lk(job->m);
            if (--job->active == 0) job->left.notify_all();
        }
    }

    /// Block until an open job has chunks left, then take a slot in it;
    /// nullptr once the pool stops.
    Job* enlist(std::size_t& slot) XCT_EXCLUDES(mu_)
    {
        UniqueLock lk(mu_);
        for (;;) {
            std::erase_if(open_, [](const Job* j) { return j->exhausted(); });
            if (!open_.empty()) break;
            if (stop_) return nullptr;
            ++idle_;
            work_.wait(lk, [&] {
                mu_.assert_held();
                return stop_ || !open_.empty();
            });
            --idle_;
        }
        Job* job = open_.front();
        MutexLock jl(job->m);
        slot = job->joined++;
        ++job->active;
        if (job->joined == job->slots) open_.erase(open_.begin());
        return job;
    }

    Mutex mu_{"core.parallel.pool"};
    CondVar work_;
    std::vector<Job*> open_ XCT_GUARDED_BY(mu_);  ///< jobs that still take workers, FIFO
    std::size_t idle_ XCT_GUARDED_BY(mu_) = 0;     ///< workers blocked in work_
    bool stop_ XCT_GUARDED_BY(mu_) = false;
    std::vector<std::thread> threads_;
};

/// Started on first use and never destroyed, so a thread still submitting
/// while the process exits finds it stopped (and drains alone) rather
/// than gone; the workers are joined at exit.
Pool& pool()
{
    static Pool* const p = [] {
        auto owned = std::make_unique<Pool>();
        std::atexit([] { pool().stop(); });
        return owned.release();
    }();
    return *p;
}

}  // namespace

std::size_t width()
{
    return t_cap > 0 ? std::min(process_width(), t_cap) : process_width();
}

std::size_t cap_width(std::size_t n)
{
    return std::exchange(t_cap, n);
}

void detail::run(index_t chunks, std::size_t slots, ChunkFn fn, void* body)
{
    Job job(fn, body, chunks, slots);
    Pool& p = pool();
    const bool shared = p.submit(job);
    job.drain(0);
    if (shared) p.close(job);
    job.error.rethrow_if_set();
}

}  // namespace xct::parallel
