#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace roboshape {
namespace net {

namespace {

/** Outcome of waiting for a descriptor. */
enum class Wait
{
    kReady,
    kTimedOut,
    kFailed,
};

/** Polls @p fd for @p events for at most @p timeout_ms. */
Wait
poll_ready(int fd, short events, int timeout_ms)
{
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    for (;;) {
        const int rc = ::poll(&pfd, 1, timeout_ms);
        if (rc > 0)
            return (pfd.revents & (events | POLLERR | POLLHUP)) != 0
                       ? Wait::kReady
                       : Wait::kFailed;
        if (rc == 0)
            return Wait::kTimedOut;
        if (errno != EINTR)
            return Wait::kFailed;
    }
}

/** True when @p fd is ready for @p events before @p timeout_ms. */
bool
wait_ready(int fd, short events, int timeout_ms)
{
    return poll_ready(fd, events, timeout_ms) == Wait::kReady;
}

} // namespace

TcpConn &
TcpConn::operator=(TcpConn &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

long
TcpConn::read_some(char *buffer, std::size_t size, int timeout_ms)
{
    if (fd_ < 0 || size == 0)
        return -1;
    switch (poll_ready(fd_, POLLIN, timeout_ms)) {
      case Wait::kReady: break;
      case Wait::kTimedOut: return kTimedOut;
      case Wait::kFailed: return -1;
    }
    for (;;) {
        const ssize_t n = ::recv(fd_, buffer, size, 0);
        if (n >= 0)
            return static_cast<long>(n);
        if (errno != EINTR)
            return -1;
    }
}

bool
TcpConn::write_all(std::string_view data, int timeout_ms)
{
    if (fd_ < 0)
        return false;
    std::size_t sent = 0;
    while (sent < data.size()) {
        if (!wait_ready(fd_, POLLOUT, timeout_ms))
            return false;
        const ssize_t n = ::send(fd_, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

void
TcpConn::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
TcpListener::listen(std::uint16_t port, int backlog)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        error_ = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd_, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        error_ = std::string("bind: ") + std::strerror(errno);
        close();
        return false;
    }
    if (::listen(fd_, backlog) != 0) {
        error_ = std::string("listen: ") + std::strerror(errno);
        close();
        return false;
    }
    // Resolve the ephemeral port when the caller asked for 0.
    socklen_t len = sizeof(addr);
    if (::getsockname(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                      &len) != 0) {
        error_ = std::string("getsockname: ") + std::strerror(errno);
        close();
        return false;
    }
    port_ = ntohs(addr.sin_port);
    return true;
}

TcpConn
TcpListener::accept(int timeout_ms)
{
    if (fd_ < 0 || !wait_ready(fd_, POLLIN, timeout_ms))
        return TcpConn();
    for (;;) {
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd >= 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            return TcpConn(fd);
        }
        if (errno != EINTR)
            return TcpConn();
    }
}

void
TcpListener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    port_ = 0;
}

TcpConn
dial(std::uint16_t port, int timeout_ms)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return TcpConn();
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);

    // Non-blocking connect with a poll deadline, then back to blocking.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    const int rc = ::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                             sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
        ::close(fd);
        return TcpConn();
    }
    if (rc != 0) {
        if (!wait_ready(fd, POLLOUT, timeout_ms)) {
            ::close(fd);
            return TcpConn();
        }
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
            err != 0) {
            ::close(fd);
            return TcpConn();
        }
    }
    ::fcntl(fd, F_SETFL, flags);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return TcpConn(fd);
}

} // namespace net
} // namespace roboshape
