/**
 * @file
 * Load-generator side of the serve workloads: a blocking keep-alive
 * HTTP/1.1 client written on plain POSIX sockets (so the daemon's own
 * codec is never on both ends of a measurement) and the lifecycle of one
 * `roboshape serve` child process.
 */

#ifndef PERFBENCH_CLIENT_H
#define PERFBENCH_CLIENT_H

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

/** Serialized request bytes. */
std::string http_request(const std::string &method, const std::string &target,
                         const std::string &body, bool trace = false,
                         bool close = false);

struct HttpReply
{
    int status = 0;
    std::string body;
    std::string cache;           ///< X-Roboshape-Cache ("" if absent).
    std::uint64_t request_id = 0; ///< X-Roboshape-Request-Id.
};

class Client
{
  public:
    Client() = default;
    ~Client();
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    Client(Client &&other) noexcept;

    bool connect(std::uint16_t port);
    /** Sends @p wire and reads one response; false on transport error. */
    bool roundtrip(const std::string &wire, HttpReply &out);
    void close();

  private:
    int fd_ = -1;
    std::string buf_;
};

/** One `roboshape serve --port 0` child process. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Spawns the daemon and waits for its startup line, which carries the
     * bound port.  @p access_log may be empty.  False (with @p error) on
     * failure.
     */
    bool start(const std::string &binary, std::size_t threads,
               const std::string &access_log, const std::string &stderr_path,
               std::string &error);

    /** SIGTERM, then waits for the drained exit.  False (with @p error)
     *  if the daemon did not drain and exit 0 in time (it is killed). */
    bool stop(std::string &error);

    pid_t pid() const { return pid_; }
    std::uint16_t port() const { return port_; }

  private:
    pid_t pid_ = -1;
    int out_fd_ = -1;
    std::uint16_t port_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_CLIENT_H
