/**
 * @file
 * Threaded HTTP server of the roboshaped daemon (docs/SERVICE.md).
 *
 * One accept thread multiplexes accepted connections onto a fixed pool of
 * worker threads through a bounded admission queue:
 *
 *   accept --> [queue, capacity Q] --> worker x N --> Service::handle
 *
 * When the queue is full the accept thread answers 429 immediately and
 * closes — the daemon sheds load at the front door instead of stacking
 * unbounded work behind slow sweeps ("heavy traffic" discipline, see
 * ROADMAP.md).  Workers run a keep-alive loop per connection, so one
 * queue slot admits a whole client session, not a single request.
 *
 * Shutdown is graceful: stop() wakes everything, the accept thread quits
 * admitting, workers finish the requests already in flight (and drain
 * connections already admitted to the queue, answering with
 * "Connection: close") and then exit.  A connection idle between
 * requests is closed within one poll slice (50 ms) of stop(), so an idle
 * keep-alive client never holds shutdown for the request timeout.  stop() returns only when all
 * threads are joined, so callers can assert on counters afterwards.
 *
 * Observability (all svc.*, docs/OBSERVABILITY.md): connections accepted,
 * requests served, response classes, overload rejections, queue depth,
 * admission-queue wait, and per-request service time split per endpoint
 * (svc.request_us.<endpoint>).  Every request is minted a process-unique
 * id (echoed as X-Roboshape-Request-Id), summarized into the flight
 * recorder (service/flight_recorder.h), optionally appended to the
 * JSON-lines access log, and — when it carries X-Roboshape-Trace: 1 —
 * wall-traced end to end into the trace vault (service/trace_vault.h).
 */

#ifndef ROBOSHAPE_SERVICE_SERVER_H
#define ROBOSHAPE_SERVICE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "service/access_log.h"
#include "service/handlers.h"

namespace roboshape {
namespace service {

struct ServerOptions
{
    /** Listen port; 0 = kernel-assigned (see Server::port()). */
    std::uint16_t port = 8080;
    /** Worker threads serving admitted connections. */
    std::size_t workers = 4;
    /** Admission-queue capacity; beyond it new connections get 429. */
    std::size_t queue_capacity = 64;
    /** Per-request socket read/write deadline. */
    int request_timeout_ms = 10000;
    /** JSON-lines access log path; empty = disabled (access_log.h). */
    std::string access_log_path;
    /** Handle time (ms) at which a request is flagged slow. */
    std::size_t slow_ms = 1000;
};

class Server
{
  public:
    /** @p service must outlive the server. */
    explicit Server(Service &service, ServerOptions options = {});
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Binds and spawns threads.  False on bind failure (see error()). */
    bool start();

    /** Drains and joins; idempotent.  Safe to call while requests run. */
    void stop();

    /** Port actually bound (resolves options.port == 0). */
    std::uint16_t port() const { return port_; }

    bool running() const { return running_; }
    const std::string &error() const { return error_; }

  private:
    /** Admitted connection plus its admission timestamp: the dequeuing
     *  worker turns the difference into svc.queue_wait_us. */
    struct Admission
    {
        net::TcpConn conn;
        std::uint64_t enqueue_ns = 0;
    };

    void accept_loop();
    void worker_loop();
    void serve_connection(net::TcpConn conn, std::int64_t queue_wait_us);
    /** Waits for the first byte of the next request into @p leftover;
     *  false when the peer closed, idled out, or the server is stopping. */
    bool await_request(net::TcpConn &conn, std::string &leftover);

    Service &service_;
    ServerOptions options_;
    net::TcpListener listener_;
    std::uint16_t port_ = 0;
    std::string error_;

    std::mutex mutex_;
    std::condition_variable queue_cv_;
    std::deque<Admission> queue_;

    std::atomic<bool> stopping_{false};
    bool running_ = false;
    std::thread accept_thread_;
    std::vector<std::thread> workers_;

    /** Request ids are minted here: dense, process-wide, starting at 1. */
    std::atomic<std::uint64_t> next_request_id_{1};
    AccessLog access_log_;
};

} // namespace service
} // namespace roboshape

#endif // ROBOSHAPE_SERVICE_SERVER_H
