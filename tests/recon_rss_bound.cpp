// Host-memory bound of the out-of-core path: run the built xct_recon on an
// input whose output volume is larger than the bound, and require the
// child's peak RSS (ru_maxrss from wait4) to stay below it.
//
//   recon_rss_bound <xct_project> <xct_recon> <work dir> <bound MiB>
//
// The input is bumblebee/64 -> 256^3: 49 views, a 184 KiB stack and a
// 64 MiB volume.  This program stays small on purpose: on Linux, exec
// folds the spawner's high-water RSS into the child's ru_maxrss.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

namespace {

/// Run `argv` to completion; the child's peak RSS in KiB, or -1 when it
/// could not run or exited non-zero.
long run(std::vector<std::string> argv)
{
    std::vector<char*> cargv;
    for (std::string& a : argv) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) return -1;
    if (pid == 0) {
        ::execv(cargv[0], cargv.data());
        ::_exit(127);
    }
    int status = 0;
    rusage ru{};
    if (::wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return -1;
    return ru.ru_maxrss;
}

int fail(const std::string& why)
{
    std::fprintf(stderr, "recon_rss_bound: %s\n", why.c_str());
    return 1;
}

}  // namespace

int main(int argc, char** argv)
{
    if (argc != 5)
        return fail("usage: recon_rss_bound <xct_project> <xct_recon> <work dir> <bound MiB>");
    const std::filesystem::path dir = argv[3];
    const long bound_mib = std::atol(argv[4]);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string in = (dir / "in.xstk").string();
    const std::string out = (dir / "out.xvol").string();

    if (run({argv[1], "--dataset", "bumblebee", "--scale", "64", "--volume", "256", "--output",
             in}) < 0)
        return fail("xct_project failed");
    const long rss_kib = run({argv[2], "--input", in, "--output", out});
    if (rss_kib < 0) return fail("xct_recon failed");

    const double out_mib = static_cast<double>(std::filesystem::file_size(out)) / (1 << 20);
    const double rss_mib = static_cast<double>(rss_kib) / 1024.0;
    std::printf("xct_recon peak RSS %.1f MiB for a %.1f MiB volume (bound %ld MiB)\n", rss_mib,
                out_mib, bound_mib);
    if (out_mib <= static_cast<double>(bound_mib))
        return fail("the output must be larger than the bound, or the bound proves nothing");
    if (rss_mib >= static_cast<double>(bound_mib))
        return fail("xct_recon held more than the bound: the volume or the stack is resident");
    std::filesystem::remove_all(dir);
    return 0;
}
