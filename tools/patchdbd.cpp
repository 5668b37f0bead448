// patchdbd — long-running daemon serving a sealed PatchDB export over
// the length-prefixed TCP protocol (src/serve). The export is loaded
// once, verified (manifest trailer + per-patch checksums — a truncated
// or tampered dataset is refused and the daemon exits 1 without ever
// opening the socket), precomputed into an immutable snapshot, and
// shared read-only across the connections, each served on its own
// thread.
//
//   patchdbd --data DIR [--bind ADDR] [--port P] [--max-connections N]
//            [--read-timeout-ms N] [--port-file FILE]
//            [--metrics-out FILE] [--trace-out FILE] [--progress]
//
// An unknown flag or any positional argument is a usage error (exit 2).
// --port 0 (the default) binds an ephemeral port; --port-file writes
// the bound port for scripts that need to find the daemon. Past
// --max-connections open connections (default 128, at least 1) a new
// one is answered with a busy error and closed. A connection that makes
// no progress for --read-timeout-ms (1 to 86400000, one day; default
// 5000) is closed: idle, partway through a request, or not reading a
// response. SIGINT or SIGTERM drains gracefully: accepting
// stops, in-flight requests finish and are answered, then the daemon
// writes its obs artifacts (--metrics-out / --trace-out) and exits 0.
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "serve/dataset.h"
#include "serve/server.h"
#include "util/flags.h"

namespace {

using namespace patchdb;

/// The longest --read-timeout-ms: one day.
constexpr std::size_t kMaxReadTimeoutMs = 86'400'000;

int usage() {
  std::fprintf(stderr,
               "usage: patchdbd --data DIR [--bind ADDR] [--port P]\n"
               "                [--max-connections N] [--read-timeout-ms N]\n"
               "                [--port-file FILE]\n"
               "                [--metrics-out FILE] [--trace-out FILE]"
               " [--progress]\n"
               "--read-timeout-ms is 1..86400000 (one day; default 5000): a\n"
               "connection that moves no byte, in or out, for that long is closed.\n");
  return 2;
}

// Self-pipe: the handler only write()s (async-signal-safe); the main
// thread blocks on the read end and runs the actual drain.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int signo) {
  const unsigned char byte = static_cast<unsigned char>(signo);
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv, 1, "patchdbd");
  std::vector<std::string> values = {"--data", "--bind", "--port",
                                     "--max-connections", "--read-timeout-ms",
                                     "--port-file"};
  values.insert(values.end(), obs::kArtifactValueFlags.begin(),
                obs::kArtifactValueFlags.end());
  if (!flags.accept(values, {"--progress"}, 0)) return 2;
  const std::string data_dir = flags.value("--data", std::string());
  if (data_dir.empty()) return usage();
  const std::size_t port = flags.value("--port", std::size_t{0});
  if (port > 65535) {
    std::fprintf(stderr, "patchdbd: --port expects 0..65535, got %zu\n", port);
    return 2;
  }
  serve::ServerOptions options;
  options.max_connections =
      flags.value("--max-connections", options.max_connections);
  if (options.max_connections == 0) {
    std::fprintf(stderr, "patchdbd: --max-connections expects at least 1\n");
    return 2;
  }
  // Bounded so the deadline read_exact adds to the steady clock stays
  // far inside its nanosecond range: a wrapped or overflowed timeout
  // would close every connection before its first frame.
  const std::size_t read_timeout_ms =
      flags.value("--read-timeout-ms", std::size_t{5000});
  if (read_timeout_ms < 1 || read_timeout_ms > kMaxReadTimeoutMs) {
    std::fprintf(stderr, "patchdbd: --read-timeout-ms expects 1..%zu, got %zu\n",
                 kMaxReadTimeoutMs, read_timeout_ms);
    return 2;
  }
  options.read_timeout = std::chrono::milliseconds(read_timeout_ms);

  obs::ObsSession cli_obs("patchdbd", obs::artifact_request(flags));

  serve::ServedDataset dataset;
  try {
    dataset = serve::ServedDataset::load(data_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "patchdbd: refusing to serve %s: %s\n"
                 "patchdbd: the dataset failed integrity verification; "
                 "re-export it or run `patchdb fsck %s`\n",
                 data_dir.c_str(), e.what(), data_dir.c_str());
    return 1;
  }

  options.bind_address = flags.value("--bind", std::string("127.0.0.1"));
  options.port = static_cast<std::uint16_t>(port);

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "patchdbd: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = on_signal;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  serve::Server server(dataset, options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "patchdbd: %s\n", e.what());
    return 1;
  }

  const std::string port_file = flags.value("--port-file", std::string());
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << server.port() << "\n";
    if (!out) {
      std::fprintf(stderr, "patchdbd: cannot write %s\n", port_file.c_str());
      server.stop();
      return 1;
    }
  }

  std::printf("patchdbd: serving %zu patches from %s on %s:%u\n",
              dataset.size(), data_dir.c_str(),
              options.bind_address.c_str(), server.port());
  std::fflush(stdout);

  // Park until a signal arrives; everything else happens on the
  // acceptor and connection threads.
  unsigned char signo = 0;
  for (;;) {
    const ssize_t n = ::read(g_signal_pipe[0], &signo, 1);
    if (n == 1) break;
    if (n < 0 && errno == EINTR) continue;
    break;  // pipe broken — treat as shutdown
  }

  std::printf("patchdbd: received %s, draining (in-flight requests finish)\n",
              signo == SIGTERM ? "SIGTERM" : "SIGINT");
  std::fflush(stdout);
  server.stop();

  std::printf("patchdbd: drained; %llu connections served, %llu shed\n",
              static_cast<unsigned long long>(server.connections_accepted()),
              static_cast<unsigned long long>(server.connections_shed()));
  return cli_obs.write_artifacts(cli_obs.report()) ? 0 : 1;
}
