#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"

namespace patchdb::serve {

namespace {

/// Poll slice: the longest a blocked read or accept goes without
/// rechecking the drain flag.
constexpr int kPollSliceMs = 100;

/// listen(2) backlog.
constexpr int kListenBacklog = 128;

/// One op's span, request counter and latency histogram: "serve." +
/// op_name(op), "serve.requests." + op_name(op) and "serve." +
/// op_name(op) + "_ms", written out once so no request builds them.
struct OpNames {
  const char* span;
  const char* requests;
  const char* latency_ms;
};

/// Indexed by Op; decode_request admits only kPing..kListIds.
constexpr OpNames kOpNames[] = {
    {nullptr, nullptr, nullptr},
    {"serve.ping", "serve.requests.ping", "serve.ping_ms"},
    {"serve.lookup", "serve.requests.lookup", "serve.lookup_ms"},
    {"serve.features", "serve.requests.features", "serve.features_ms"},
    {"serve.nearest", "serve.requests.nearest", "serve.nearest_ms"},
    {"serve.stats", "serve.requests.stats", "serve.stats_ms"},
    {"serve.analyze", "serve.requests.analyze", "serve.analyze_ms"},
    {"serve.list_ids", "serve.requests.list_ids", "serve.list_ids_ms"},
};
static_assert(std::size(kOpNames) ==
              static_cast<std::size_t>(Op::kListIds) + 1);

void close_quietly(int fd) noexcept {
  if (fd >= 0) ::close(fd);
}

/// Write all of `data` without blocking, polling in short slices; false
/// on any error (peer gone, EPIPE, ...) or when no byte moves for
/// `timeout` (serve.timeouts): a client that stops reading cannot pin
/// the thread, as with read_exact's deadline. MSG_NOSIGNAL so a dead
/// peer surfaces as EPIPE, not SIGPIPE.
bool send_all(int fd, std::string_view data,
              std::chrono::milliseconds timeout) noexcept {
  std::size_t sent = 0;
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
      deadline = std::chrono::steady_clock::now() + timeout;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, kPollSliceMs) <= 0 &&
          std::chrono::steady_clock::now() >= deadline) {
        PATCHDB_COUNTER_ADD("serve.timeouts", 1);
        return false;
      }
    } else if (errno != EINTR) {
      return false;
    }
  }
  return true;
}

enum class ReadOutcome {
  kOk,        // buffer filled
  kClosed,    // orderly shutdown before the first byte of this read
  kPeerGone,  // orderly shutdown after some bytes of this read arrived
  kTimeout,   // no progress for the read timeout
  kDrain,     // server draining and no bytes of this read had arrived
  kError,     // socket error (recv failed outright)
};

/// Read exactly `want` bytes, polling in short slices. Resets its
/// progress deadline on every byte received, so only a genuinely
/// stalled peer times out. When `stop_at_boundary` is set and no byte
/// has arrived yet, a raised drain flag ends the read — that is how an
/// idle keep-alive connection dies at a frame boundary during shutdown,
/// while a frame already in flight is read (and answered) to the end.
ReadOutcome read_exact(int fd, unsigned char* out, std::size_t want,
                       std::chrono::milliseconds timeout,
                       const std::atomic<bool>& draining,
                       bool stop_at_boundary) {
  std::size_t got = 0;
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (got < want) {
    if (stop_at_boundary && got == 0 &&
        draining.load(std::memory_order_relaxed)) {
      return ReadOutcome::kDrain;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollSliceMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ReadOutcome::kError;
    }
    if (ready == 0) {
      if (std::chrono::steady_clock::now() >= deadline) {
        return ReadOutcome::kTimeout;
      }
      continue;
    }
    const ssize_t n = ::recv(fd, out + got, want - got, 0);
    if (n == 0) {
      // EOF is an ordinary disconnect either way — the caller decides
      // whether it landed on a frame boundary (kClosed) or cut a frame
      // short (kPeerGone); neither is a protocol violation by itself.
      return got == 0 ? ReadOutcome::kClosed : ReadOutcome::kPeerGone;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return ReadOutcome::kError;
    }
    got += static_cast<std::size_t>(n);
    deadline = std::chrono::steady_clock::now() + timeout;
  }
  return ReadOutcome::kOk;
}

}  // namespace

Server::Server(const ServedDataset& dataset, ServerOptions options)
    : dataset_(dataset), options_(std::move(options)) {}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) throw std::logic_error("serve: Server::start called twice");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("serve: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    close_quietly(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: bad bind address " +
                             options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, kListenBacklog) != 0) {
    const std::string reason = std::strerror(errno);
    close_quietly(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot listen on " +
                             options_.bind_address + ":" +
                             std::to_string(options_.port) + ": " + reason);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  // Seed the counters the bench gate asserts on, so a clean run still
  // reports explicit zeros instead of missing metrics.
  PATCHDB_COUNTER_ADD("serve.protocol_errors", 0);
  PATCHDB_COUNTER_ADD("serve.timeouts", 0);
  PATCHDB_COUNTER_ADD("serve.requests", 0);
  PATCHDB_COUNTER_ADD("serve.disconnects_midframe", 0);
  PATCHDB_COUNTER_ADD("serve.socket_errors", 0);
  PATCHDB_GAUGE_SET("serve.active_connections", 0.0);
  PATCHDB_GAUGE_SET("serve.port", static_cast<double>(port_));

  started_ = true;
  acceptor_ = std::thread([this] { acceptor_loop(); });
}

void Server::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  draining_.store(true, std::memory_order_relaxed);
  if (acceptor_.joinable()) acceptor_.join();
  close_quietly(listen_fd_);
  listen_fd_ = -1;
  // Connection threads notice the drain flag at their next poll slice,
  // finish the request they are serving, and return.
  for (Connection& connection : connections_) connection.thread.join();
  connections_.clear();
}

void Server::acceptor_loop() {
  PATCHDB_TRACE_SPAN("serve.acceptor");
  while (!draining_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollSliceMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket gone; nothing left to accept
    }
    reap_connections();
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    PATCHDB_COUNTER_ADD("serve.connections", 1);
    if (connections_.size() >= options_.max_connections) {
      shed(fd);
      continue;
    }
    Connection* connection = nullptr;
    try {
      connection = &connections_.emplace_back();
      connection->thread = std::thread([this, fd, connection] {
        serve_connection(fd);
        connection->done.store(true, std::memory_order_release);
      });
    } catch (const std::exception&) {
      // No thread (or no memory) to serve it: shed it like one past the
      // limit.
      if (connection != nullptr) connections_.pop_back();
      shed(fd);
    }
  }
}

void Server::reap_connections() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::shed(int fd) {
  connections_shed_.fetch_add(1, std::memory_order_relaxed);
  PATCHDB_COUNTER_ADD("serve.connections_shed", 1);
  const Response busy =
      error_response(Status::kBusy, "server at capacity; retry later");
  send_all(fd, frame(encode_response(Op::kPing, busy)), options_.read_timeout);
  close_quietly(fd);
}

void Server::serve_connection(int fd) noexcept {
  PATCHDB_GAUGE_ADD("serve.active_connections", 1.0);
  try {
    serve_requests(fd);
  } catch (...) {
    // A failure outside any one request (an allocation) ends this
    // connection alone; the thread must not take the process down.
    PATCHDB_COUNTER_ADD("serve.server_errors", 1);
  }
  close_quietly(fd);
  PATCHDB_GAUGE_ADD("serve.active_connections", -1.0);
}

void Server::serve_requests(int fd) {
  std::vector<unsigned char> header(kFrameHeaderBytes);
  std::string body;

  const auto fail_protocol = [&](const std::string& message) {
    PATCHDB_COUNTER_ADD("serve.protocol_errors", 1);
    const Response err = error_response(Status::kBadRequest, message);
    send_all(fd, frame(encode_response(Op::kPing, err)), options_.read_timeout);
  };

  for (;;) {
    // Frame header. An idle connection parks here; drain closes it.
    ReadOutcome outcome =
        read_exact(fd, header.data(), header.size(), options_.read_timeout,
                   draining_, /*stop_at_boundary=*/true);
    if (outcome == ReadOutcome::kTimeout) {
      PATCHDB_COUNTER_ADD("serve.timeouts", 1);
      return;
    }
    if (outcome == ReadOutcome::kPeerGone) {
      // Peer hung up after sending part of a header: an ordinary
      // disconnect on a slow socket, not frame corruption.
      PATCHDB_COUNTER_ADD("serve.disconnects_midframe", 1);
      return;
    }
    if (outcome == ReadOutcome::kError) {
      PATCHDB_COUNTER_ADD("serve.socket_errors", 1);
      return;
    }
    if (outcome != ReadOutcome::kOk) return;  // kClosed / kDrain: clean end

    std::size_t body_len = 0;
    try {
      body_len = parse_frame_header(header);
    } catch (const ProtocolError& e) {
      fail_protocol(e.what());
      return;
    }

    // Frame body: the request is now in flight, so a drain no longer
    // interrupts it — read it fully and answer it.
    body.resize(body_len);
    outcome = read_exact(fd, reinterpret_cast<unsigned char*>(body.data()),
                         body.size(), options_.read_timeout, draining_,
                         /*stop_at_boundary=*/false);
    if (outcome == ReadOutcome::kTimeout) {
      PATCHDB_COUNTER_ADD("serve.timeouts", 1);
      return;
    }
    if (outcome == ReadOutcome::kClosed || outcome == ReadOutcome::kPeerGone) {
      // The header promised body_len bytes and the peer hung up before
      // delivering them (kClosed here still means mid-frame: the header
      // was already consumed). Ordinary disconnect, not corruption.
      PATCHDB_COUNTER_ADD("serve.disconnects_midframe", 1);
      return;
    }
    if (outcome == ReadOutcome::kError) {
      PATCHDB_COUNTER_ADD("serve.socket_errors", 1);
      return;
    }
    if (outcome != ReadOutcome::kOk) return;

    Request request;
    try {
      request = decode_request(body);
    } catch (const ProtocolError& e) {
      fail_protocol(e.what());
      return;
    }

    const OpNames& names = kOpNames[static_cast<std::size_t>(request.op)];
    Response response;
    const auto start = std::chrono::steady_clock::now();
    {
      obs::ScopedSpan span(names.span);
      try {
        response = dataset_.handle(request);
      } catch (const std::exception& e) {
        response = error_response(Status::kServerError, e.what());
      }
    }
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    std::string reply;
    try {
      reply = frame(encode_response(request.op, response));
    } catch (const ProtocolError& e) {
      // Too large to frame (a lookup of a patch past the cap): the
      // client learns why instead of waiting for a reply.
      response = error_response(Status::kServerError, e.what());
      reply = frame(encode_response(request.op, response));
    }
    PATCHDB_COUNTER_ADD("serve.requests", 1);
    PATCHDB_COUNTER_ADD(names.requests, 1);
    PATCHDB_HISTOGRAM_OBSERVE("serve.request_ms", ms);
    PATCHDB_HISTOGRAM_OBSERVE(names.latency_ms, ms);
    if (response.status == Status::kServerError) {
      PATCHDB_COUNTER_ADD("serve.server_errors", 1);
    }

    if (!send_all(fd, reply, options_.read_timeout)) return;
    if (draining_.load(std::memory_order_relaxed)) return;
  }
}

}  // namespace patchdb::serve
