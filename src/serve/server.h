// patchdbd's serving core: a TCP acceptor thread plus a worker pool
// (util::ThreadPool), serving the length-prefixed protocol of
// serve/protocol.h over an immutable ServedDataset.
//
// Threading model — one connection, one worker, blocking I/O:
//   - the acceptor thread accept()s and hands each connection to the
//     pool; it counts the connections it has handed over and not yet
//     seen closed, and once threads + max_pending are open it answers a
//     new one with a kShuttingDown-style busy error and closes it
//     instead of queuing without bound (backpressure, not memory
//     growth);
//   - a worker serves its connection's requests strictly in order until
//     the client closes, an I/O error, a malformed frame, a read
//     timeout, or a server drain;
//   - reads poll in short slices so a blocked worker notices stop()
//     quickly; a partial frame that stops making progress for longer
//     than ServerOptions::read_timeout closes the connection — one bad
//     client cannot wedge a worker.
//
// Shutdown sequence (stop(), also the SIGINT/SIGTERM path in the
// daemon): mark draining -> close the listen socket (unblocks accept;
// no new connections) -> workers finish the request they are executing,
// write its response, and close their connections at the next frame
// boundary -> wait_idle on the pool. In-flight requests always complete;
// idle keep-alive connections are dropped.
//
// Observability: per-request spans (serve.<op>), latency histograms
// (serve.request_ms, serve.<op>_ms), request/error/timeout counters and
// an active-connection gauge, all through the process-global obs sinks —
// run the server under an obs::ObsSession to capture them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "serve/dataset.h"
#include "util/thread_pool.h"

namespace patchdb::serve {

struct ServerOptions {
  /// Address to bind; loopback by default (a dataset daemon exposed to
  /// the world should sit behind something that terminates TLS anyway).
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the bound port from Server::port().
  std::uint16_t port = 0;
  /// Worker threads == the concurrent-connection capacity (blocking
  /// I/O, one connection per worker). 0 = max(hardware_concurrency, 64)
  /// so a default daemon meets the 64-concurrent-connection bar even on
  /// small machines; workers blocked on idle sockets cost only memory.
  std::size_t threads = 0;
  /// Connections queued past the busy workers before the acceptor
  /// starts shedding with a busy error: it sheds once threads +
  /// max_pending connections are open.
  std::size_t max_pending = 64;
  /// A connection (or a partially received frame) that makes no
  /// progress for this long is closed.
  std::chrono::milliseconds read_timeout{5000};
};

class Server {
 public:
  /// The dataset must outlive the server; it is shared read-only
  /// across workers.
  Server(const ServedDataset& dataset, ServerOptions options);
  ~Server();  // stop() if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn acceptor and workers. Throws
  /// std::runtime_error when the socket cannot be bound.
  void start();

  /// The bound port (valid after start(); resolves port 0 requests).
  std::uint16_t port() const noexcept { return port_; }

  /// Graceful drain: stop accepting, finish in-flight requests, join
  /// everything. Idempotent; also safe to call from a signal-notified
  /// thread (not from a handler itself — it takes locks).
  void stop();

  bool running() const noexcept { return started_ && !stopped_; }

  /// Connections accepted since start (includes shed ones).
  std::uint64_t connections_accepted() const noexcept {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  /// Connections answered with a busy error because threads +
  /// max_pending connections were already open.
  std::uint64_t connections_shed() const noexcept {
    return connections_shed_.load(std::memory_order_relaxed);
  }

 private:
  void acceptor_loop();
  void serve_connection(int fd);

  const ServedDataset& dataset_;
  ServerOptions options_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::thread acceptor_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<bool> draining_{false};
  /// Handed to the pool and not yet closed; the acceptor is the only
  /// thread that raises it.
  std::atomic<std::size_t> open_connections_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_shed_{0};
};

}  // namespace patchdb::serve
