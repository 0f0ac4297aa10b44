#include "serve/socket.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "serve/protocol.hpp"

namespace xct::serve {

namespace {

[[noreturn]] void fail(const std::string& what)
{
    throw std::runtime_error("serve socket: " + what + ": " + std::strerror(errno));
}

sockaddr_un make_addr(const std::filesystem::path& path)
{
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    const std::string s = path.string();
    if (s.size() + 1 > sizeof(addr.sun_path))
        throw std::runtime_error("serve socket: path too long: " + s);
    std::memcpy(addr.sun_path, s.c_str(), s.size() + 1);
    return addr;
}

/// Read until '\n' or EOF (the line terminator is stripped).  Bounded at
/// 16 MB so a rogue client cannot balloon the daemon.  A connection
/// carries one line each way, so bytes past the '\n' are dropped.
bool read_line(int fd, std::string& out)
{
    constexpr std::size_t kMaxLine = 16u << 20;
    out.clear();
    std::array<char, 1u << 16> buf{};
    while (out.size() < kMaxLine) {
        const ssize_t n = ::read(fd, buf.data(), std::min(buf.size(), kMaxLine - out.size()));
        if (n == 0) return !out.empty();
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        const auto got = static_cast<std::size_t>(n);
        const auto* nl = static_cast<const char*>(std::memchr(buf.data(), '\n', got));
        out.append(buf.data(), nl != nullptr ? static_cast<std::size_t>(nl - buf.data()) : got);
        if (nl != nullptr) return true;
    }
    return false;
}

bool write_all(int fd, const std::string& line)
{
    std::size_t done = 0;
    while (done < line.size()) {
        const ssize_t n = ::write(fd, line.data() + done, line.size() - done);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

}  // namespace

UnixServer::UnixServer(std::filesystem::path path) : path_(std::move(path))
{
    if (path_.has_parent_path()) std::filesystem::create_directories(path_.parent_path());
    std::filesystem::remove(path_);  // stale socket from a killed daemon
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) fail("socket");
    sockaddr_un addr = make_addr(path_);
    if (::bind(fd_, (const sockaddr*)&addr, sizeof(addr)) != 0) fail("bind " + path_.string());
    if (::listen(fd_, 64) != 0) fail("listen");
}

UnixServer::~UnixServer()
{
    if (fd_ >= 0) ::close(fd_);
    std::error_code ec;
    std::filesystem::remove(path_, ec);
}

void UnixServer::run(const Handler& handler, const std::atomic<bool>& stop)
{
    while (!stop.load(std::memory_order_acquire)) {
        pollfd p{};
        p.fd = fd_;
        p.events = POLLIN;
        const int r = ::poll(&p, 1, 100);
        if (r < 0) {
            if (errno == EINTR) continue;
            fail("poll");
        }
        if (r == 0 || (p.revents & POLLIN) == 0) continue;
        const int cfd = ::accept(fd_, nullptr, nullptr);
        if (cfd < 0) continue;  // client gone between poll and accept
        std::string line;
        if (read_line(cfd, line)) {
            std::string response;
            try {
                response = handler(line);
            } catch (const std::exception& e) {
                response = encode_error(e.what());
            }
            response.push_back('\n');
            write_all(cfd, response);
        }
        ::close(cfd);
    }
}

std::string unix_request(const std::filesystem::path& path, const std::string& line,
                         double timeout_s)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) fail("socket");
    timeval tv{};
    tv.tv_sec = static_cast<long>(timeout_s);
    tv.tv_usec = static_cast<long>((timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_un addr = make_addr(path);
    if (::connect(fd, (const sockaddr*)&addr, sizeof(addr)) != 0) {
        ::close(fd);
        fail("connect " + path.string());
    }
    std::string out = line;
    out.push_back('\n');
    std::string response;
    const bool ok = write_all(fd, out) && read_line(fd, response);
    ::close(fd);
    if (!ok) throw std::runtime_error("serve socket: request failed on " + path.string());
    return response;
}

}  // namespace xct::serve
