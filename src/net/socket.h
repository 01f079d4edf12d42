/**
 * @file
 * Minimal blocking TCP socket layer for the roboshaped daemon
 * (docs/SERVICE.md).
 *
 * Deliberately from scratch over raw POSIX sockets — the daemon must ship
 * with zero new dependencies — and deliberately small: a listener that
 * accepts with a poll() timeout (so graceful shutdown never blocks in
 * accept(2)) and a connection with timeboxed read/write.  Everything
 * HTTP-shaped lives one layer up in net/http.h.
 *
 * All operations are blocking with explicit millisecond deadlines; no
 * internal threads, no global state.  Writes use MSG_NOSIGNAL so a peer
 * hanging up mid-response surfaces as an error return, never SIGPIPE.
 */

#ifndef ROBOSHAPE_NET_SOCKET_H
#define ROBOSHAPE_NET_SOCKET_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace roboshape {
namespace net {

/**
 * One accepted (or dialed) TCP connection.  Move-only owner of the file
 * descriptor; closes on destruction.
 */
class TcpConn
{
  public:
    TcpConn() = default;
    explicit TcpConn(int fd) : fd_(fd) {}
    ~TcpConn() { close(); }

    TcpConn(TcpConn &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    TcpConn &operator=(TcpConn &&other) noexcept;
    TcpConn(const TcpConn &) = delete;
    TcpConn &operator=(const TcpConn &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** read_some() result when nothing arrived within the deadline. */
    static constexpr long kTimedOut = -2;

    /**
     * Reads up to @p size bytes into @p buffer, waiting at most
     * @p timeout_ms for the socket to become readable.
     * @return bytes read (> 0), 0 on orderly peer close, kTimedOut when
     *         the deadline passed with nothing to read, -1 on error.
     */
    long read_some(char *buffer, std::size_t size, int timeout_ms);

    /** Writes the whole buffer (retrying partial writes), waiting at most
     *  @p timeout_ms per poll.  @return true when every byte was sent. */
    bool write_all(std::string_view data, int timeout_ms);

    void close();

  private:
    int fd_ = -1;
};

/**
 * Listening TCP socket bound to 127.0.0.1 (the daemon is a local/
 * behind-a-proxy service; it never binds a public interface itself).
 */
class TcpListener
{
  public:
    TcpListener() = default;
    ~TcpListener() { close(); }
    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    /**
     * Binds and listens on @p port (0 = kernel-assigned ephemeral port,
     * see bound_port()).  @p backlog is the kernel accept backlog.
     * @return false on failure; error() describes why.
     */
    bool listen(std::uint16_t port, int backlog = 128);

    /** Port actually bound — the resolution of listen(0). */
    std::uint16_t bound_port() const { return port_; }

    /**
     * Accepts one connection, waiting at most @p timeout_ms.  Returns an
     * invalid conn on timeout (the normal shutdown-poll path) or error.
     */
    TcpConn accept(int timeout_ms);

    bool valid() const { return fd_ >= 0; }
    const std::string &error() const { return error_; }

    void close();

  private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
    std::string error_;
};

/** Dials 127.0.0.1:@p port; invalid conn on failure.  Test/bench client. */
TcpConn dial(std::uint16_t port, int timeout_ms);

} // namespace net
} // namespace roboshape

#endif // ROBOSHAPE_NET_SOCKET_H
