#include "spawn.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "spans.hpp"

namespace xct::bench {

namespace {

/// posix_spawn wants mutable C strings; `storage` owns them.
std::vector<char*> c_strings(std::vector<std::string>& storage)
{
    std::vector<char*> out;
    out.reserve(storage.size() + 1);
    for (std::string& s : storage) out.push_back(s.data());
    out.push_back(nullptr);
    return out;
}

std::vector<std::string> merged_environment(const std::vector<std::string>& overrides)
{
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        const std::string key = kv.substr(0, kv.find('='));
        bool replaced = false;
        for (const std::string& o : overrides)
            replaced = replaced || o.substr(0, o.find('=')) == key;
        if (!replaced) env.push_back(kv);
    }
    env.insert(env.end(), overrides.begin(), overrides.end());
    return env;
}

}  // namespace

Child::Child(const std::vector<std::string>& argv, const std::filesystem::path& log,
             const std::vector<std::string>& env)
{
    if (argv.empty()) throw std::invalid_argument("xct_bench: empty child command line");
    std::vector<std::string> args = argv;
    std::vector<std::string> envs = merged_environment(env);
    std::vector<char*> cargs = c_strings(args);
    std::vector<char*> cenv = c_strings(envs);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    const std::string log_path = log.string();
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
    start_ = now_s();
    const int rc = posix_spawn(&pid_, cargs[0], &fa, nullptr, cargs.data(), cenv.data());
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        pid_ = -1;
        throw std::runtime_error("xct_bench: posix_spawn " + argv[0] + ": " + std::strerror(rc));
    }
}

Child::~Child()
{
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
}

ChildExit Child::wait()
{
    if (pid_ <= 0) throw std::logic_error("xct_bench: child already reaped");
    ChildExit r;
    rusage ru{};
    int status = 0;
    pid_t got = -1;
    do {
        got = ::wait4(pid_, &status, 0, &ru);
    } while (got < 0 && errno == EINTR);
    r.wall_s = now_s() - start_;
    pid_ = -1;
    if (got < 0) throw std::runtime_error(std::string("xct_bench: wait4: ") + std::strerror(errno));
    r.status = status;
    r.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
    return r;
}

ChildExit run_child(const std::vector<std::string>& argv, const std::filesystem::path& log,
                    const std::vector<std::string>& env)
{
    Child c(argv, log, env);
    return c.wait();
}

}  // namespace xct::bench
