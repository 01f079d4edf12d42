#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "common.h"

namespace perfbench {

std::string
http_request(const std::string &method, const std::string &target,
             const std::string &body, bool trace, bool close)
{
    std::string out = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (trace)
        out += "X-Roboshape-Trace: 1\r\n";
    if (close)
        out += "Connection: close\r\n";
    if (!body.empty() || method == "POST")
        out += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
    out += "\r\n";
    out += body;
    return out;
}

Client::~Client()
{
    close();
}

Client::Client(Client &&other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_))
{
    other.fd_ = -1;
}

bool
Client::connect(std::uint16_t port)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        close();
        return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    buf_.clear();
    return true;
}

void
Client::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

namespace {

/** Value of header @p name (lowercase) in a raw header block, or "". */
std::string_view
header_value(std::string_view head, std::string_view name)
{
    std::size_t pos = head.find("\r\n");
    while (pos != std::string_view::npos && pos + 2 < head.size()) {
        const std::size_t start = pos + 2;
        const std::size_t end = head.find("\r\n", start);
        const std::string_view line =
            head.substr(start, end == std::string_view::npos ? head.npos
                                                             : end - start);
        const std::size_t colon = line.find(':');
        if (colon == name.size()) {
            bool match = true;
            for (std::size_t i = 0; i < colon && match; ++i)
                match = static_cast<char>(std::tolower(
                            static_cast<unsigned char>(line[i]))) == name[i];
            if (match) {
                std::string_view v = line.substr(colon + 1);
                while (!v.empty() && v.front() == ' ')
                    v.remove_prefix(1);
                return v;
            }
        }
        pos = end;
    }
    return {};
}

} // namespace

bool
Client::roundtrip(const std::string &wire, HttpReply &out)
{
    if (fd_ < 0)
        return false;
    std::size_t sent = 0;
    while (sent < wire.size()) {
        const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                                 MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    char chunk[65536];
    std::size_t head_end = std::string::npos;
    std::size_t total = 0;
    for (;;) {
        if (head_end == std::string::npos) {
            head_end = buf_.find("\r\n\r\n");
            if (head_end != std::string::npos) {
                const std::string_view head(buf_.data(), head_end);
                const std::string_view len = header_value(head, "content-length");
                total = head_end + 4 +
                        std::strtoull(std::string(len).c_str(), nullptr, 10);
            }
        }
        if (head_end != std::string::npos && buf_.size() >= total)
            break;
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string_view head(buf_.data(), head_end);
    out.status = head.size() > 12 ? std::atoi(buf_.c_str() + 9) : 0;
    out.cache = std::string(header_value(head, "x-roboshape-cache"));
    out.request_id = std::strtoull(
        std::string(header_value(head, "x-roboshape-request-id")).c_str(),
        nullptr, 10);
    out.body.assign(buf_, head_end + 4, total - head_end - 4);
    buf_.erase(0, total);
    return true;
}

Daemon::~Daemon()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0)
        ::close(out_fd_);
}

namespace {

/** Reads from @p fd until @p needle appears or @p timeout_ms passes. */
bool
read_until(int fd, std::string &text, const std::string &needle,
           int timeout_ms)
{
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1000000ull;
    while (text.find(needle) == std::string::npos) {
        const std::uint64_t now = now_ns();
        if (now >= deadline)
            return false;
        pollfd p{fd, POLLIN, 0};
        const int left = static_cast<int>((deadline - now) / 1000000ull) + 1;
        if (::poll(&p, 1, left) <= 0)
            continue;
        char buf[4096];
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0)
            return text.find(needle) != std::string::npos;
        text.append(buf, static_cast<std::size_t>(n));
    }
    return true;
}

} // namespace

bool
Daemon::start(const std::string &binary, std::size_t threads,
              const std::string &access_log, const std::string &stderr_path,
              std::string &error)
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
        error = "pipe failed";
        return false;
    }
    const std::string threads_arg = std::to_string(threads);
    std::vector<const char *> argv = {"roboshape", "serve", "--port", "0",
                                      "--threads", threads_arg.c_str(),
                                      "--queue", "64"};
    if (!access_log.empty()) {
        argv.push_back("--access-log");
        argv.push_back(access_log.c_str());
    }
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        error = "fork failed";
        return false;
    }
    if (pid == 0) {
        // The daemon must not outlive the harness, even if it crashes.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(126);
        ::dup2(fds[1], STDOUT_FILENO);
        const int err = ::open(stderr_path.c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (err >= 0)
            ::dup2(err, STDERR_FILENO);
        ::execv(binary.c_str(), const_cast<char *const *>(argv.data()));
        ::_exit(127);
    }
    ::close(fds[1]);
    pid_ = pid;
    out_fd_ = fds[0];
    std::string text;
    if (!read_until(out_fd_, text, ")\n", 20000)) {
        error = "daemon printed no startup line: '" + text + "'";
        return false;
    }
    const std::string marker = "listening on 127.0.0.1:";
    const std::size_t at = text.find(marker);
    if (at == std::string::npos) {
        error = "unexpected startup line: '" + text + "'";
        return false;
    }
    port_ = static_cast<std::uint16_t>(
        std::strtoul(text.c_str() + at + marker.size(), nullptr, 10));
    return port_ != 0;
}

namespace {

/**
 * Waits until process @p pid catches SIGTERM (SigCgt in its status).  The
 * daemon answers requests before it installs its SIGTERM handler, so a
 * SIGTERM sent right after its first reply can kill it undrained.
 */
bool
wait_sigterm_handler(pid_t pid, int timeout_ms)
{
    const std::string path = "/proc/" + std::to_string(pid) + "/status";
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1000000ull;
    do {
        const std::string st = read_file(path);
        const std::size_t at = st.find("SigCgt:");
        if (at != std::string::npos &&
            (std::strtoull(st.c_str() + at + 7, nullptr, 16) >>
             (SIGTERM - 1)) & 1)
            return true;
        ::usleep(1000);
    } while (now_ns() < deadline);
    return false;
}

} // namespace

bool
Daemon::stop(std::string &error)
{
    if (pid_ <= 0)
        return true;
    wait_sigterm_handler(pid_, 5000);
    ::kill(pid_, SIGTERM);
    std::string text;
    read_until(out_fd_, text, "drained and stopped", 15000);
    int status = 0;
    pid_t done = 0;
    const std::uint64_t deadline = now_ns() + 15000000000ull;
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           now_ns() < deadline)
        ::usleep(2000);
    bool ok = true;
    if (done != pid_) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        error = "daemon did not exit within 15 s of SIGTERM";
        ok = false;
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        error = "daemon exited abnormally (status " + std::to_string(status) +
                ")";
        ok = false;
    } else if (text.find("drained and stopped") == std::string::npos) {
        error = "daemon exited without its drain line";
        ok = false;
    }
    pid_ = -1;
    ::close(out_fd_);
    out_fd_ = -1;
    return ok;
}

} // namespace perfbench
