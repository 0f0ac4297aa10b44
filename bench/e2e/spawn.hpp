#pragma once
// Child processes of the benchmark: the built xct_project, xct_recon and
// xct_serve binaries, started with posix_spawn and reaped with wait4 so
// each child's wall time (spawn -> exit) and peak RSS (ru_maxrss) are
// measured by the kernel rather than by the child.

#include <sys/types.h>

#include <filesystem>
#include <string>
#include <vector>

namespace xct::bench {

struct ChildExit {
    int status = -1;          ///< wait status (0: exited with code 0)
    double wall_s = 0.0;      ///< posix_spawn -> wait4 return
    double maxrss_mib = 0.0;  ///< peak resident set of the child
    bool ok() const { return status == 0; }
};

/// One running child.  Its stdout and stderr go to `log`; `env` entries
/// ("NAME=value") override the inherited environment.  The destructor
/// kills and reaps a child that was never waited for, so no process
/// outlives the benchmark on an error path.
class Child {
public:
    Child(const std::vector<std::string>& argv, const std::filesystem::path& log,
          const std::vector<std::string>& env = {});
    ~Child();
    Child(const Child&) = delete;
    Child& operator=(const Child&) = delete;

    /// Block until the child exits; returns its status, wall time and RSS.
    ChildExit wait();
    bool running() const { return pid_ > 0; }

private:
    pid_t pid_ = -1;
    double start_ = 0.0;
};

/// Spawn, wait, return.
ChildExit run_child(const std::vector<std::string>& argv, const std::filesystem::path& log,
                    const std::vector<std::string>& env = {});

}  // namespace xct::bench
