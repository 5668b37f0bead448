// patchdbd's serving core: a TCP acceptor thread that starts one thread
// per connection, serving the length-prefixed protocol of
// serve/protocol.h over an immutable ServedDataset.
//
// Threading model — one connection, one thread, blocking I/O:
//   - the acceptor thread accept()s each connection and starts a thread
//     that serves it, so no connection ever waits behind another, idle
//     or busy. It owns those threads: before it counts them it joins the
//     ones that have finished, and once max_connections are open it
//     answers a new connection with a kBusy error and closes it
//     (backpressure, not memory growth). A connection whose
//     thread cannot be started is shed the same way;
//   - a connection's thread serves its requests strictly in order until
//     the client closes, an I/O error, a malformed frame, a read
//     timeout, or a server drain. Nothing escapes it: a response too
//     large to frame is answered kServerError, and any other failure
//     ends that connection alone;
//   - reads poll in short slices so a blocked thread notices stop()
//     quickly; a partial frame that stops making progress for longer
//     than ServerOptions::read_timeout closes the connection, and so
//     does a response that a client stops reading — one bad client
//     cannot hold a thread (or the drain) for longer than that.
//
// Shutdown sequence (stop(), also the SIGINT/SIGTERM path in the
// daemon): mark draining -> join the acceptor and close the listen
// socket (no new connections) -> connection threads finish the request
// they are executing, write its response, and close their connections
// at the next frame boundary -> join them. In-flight requests always
// complete; idle keep-alive connections are dropped.
//
// Observability: per-request spans (serve.<op>), latency histograms
// (serve.request_ms, serve.<op>_ms), request/error/timeout counters and
// an active-connection gauge, all through the process-global obs sinks —
// run the server under an obs::ObsSession to capture them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <string>
#include <thread>

#include "serve/dataset.h"

namespace patchdb::serve {

struct ServerOptions {
  /// Address to bind; loopback by default (a dataset daemon exposed to
  /// the world should sit behind something that terminates TLS anyway).
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the bound port from Server::port().
  std::uint16_t port = 0;
  /// Connections served at once, each on its own thread; one more is
  /// answered with a busy error and closed. An idle connection costs a
  /// parked thread until the read timeout closes it.
  std::size_t max_connections = 128;
  /// A connection that makes no progress for this long is closed:
  /// idle, partway through a frame, or with a response it does not
  /// read (a send that moves no byte).
  std::chrono::milliseconds read_timeout{5000};
};

class Server {
 public:
  /// The dataset must outlive the server; it is shared read-only
  /// across connection threads.
  Server(const ServedDataset& dataset, ServerOptions options);
  ~Server();  // stop() if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the acceptor. Throws std::runtime_error when
  /// the socket cannot be bound.
  void start();

  /// The bound port (valid after start(); resolves port 0 requests).
  std::uint16_t port() const noexcept { return port_; }

  /// Graceful drain: stop accepting, finish in-flight requests, join
  /// everything. Idempotent; also safe to call from a signal-notified
  /// thread (not from a handler itself — it joins threads).
  void stop();

  bool running() const noexcept { return started_ && !stopped_; }

  /// Connections accepted since start (includes shed ones).
  std::uint64_t connections_accepted() const noexcept {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  /// Connections answered with a busy error: max_connections were
  /// already open, or no thread could be started to serve them.
  std::uint64_t connections_shed() const noexcept {
    return connections_shed_.load(std::memory_order_relaxed);
  }

 private:
  /// An accepted connection's thread; `done` is set once it has closed
  /// the socket, so the acceptor can join it without blocking.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void acceptor_loop();
  /// Join and forget the connections whose threads have finished.
  void reap_connections();
  /// Answer `fd` with the busy error and close it.
  void shed(int fd);
  /// Serve one connection to its end and close it; never throws.
  void serve_connection(int fd) noexcept;
  /// The request loop of serve_connection.
  void serve_requests(int fd);

  const ServedDataset& dataset_;
  ServerOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<bool> draining_{false};
  /// The acceptor's alone while it runs; stop() joins what is left.
  std::list<Connection> connections_;
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_shed_{0};
  std::thread acceptor_;
};

}  // namespace patchdb::serve
