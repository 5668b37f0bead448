// patchdbd — long-running daemon serving a sealed PatchDB export over
// the length-prefixed TCP protocol (src/serve). The export is loaded
// once, verified (manifest trailer + per-patch checksums — a truncated
// or tampered dataset is refused and the daemon exits 1 without ever
// opening the socket), precomputed into an immutable snapshot, and
// shared read-only across a worker pool.
//
//   patchdbd --data DIR [--bind ADDR] [--port P] [--threads N]
//            [--max-pending N] [--read-timeout-ms N] [--port-file FILE]
//            [--metrics-out FILE] [--trace-out FILE] [--sample-ms N]
//            [--progress]
//
// An unknown flag or any positional argument is a usage error (exit 2).
// --port 0 (the default) binds an ephemeral port; --port-file writes
// the bound port for scripts that need to find the daemon. SIGINT or
// SIGTERM drains gracefully: accepting stops, in-flight requests
// finish and are answered, then the daemon writes its obs artifacts
// (--metrics-out / --trace-out) and exits 0.
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

int usage() {
  std::fprintf(stderr,
               "usage: patchdbd --data DIR [--bind ADDR] [--port P]\n"
               "                [--threads N] [--max-pending N]\n"
               "                [--read-timeout-ms N] [--port-file FILE]\n"
               "                [--metrics-out FILE] [--trace-out FILE]"
               " [--sample-ms N]\n"
               "                [--progress]\n");
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
  std::vector<std::string> values = {"--data",        "--bind",
                                     "--port",        "--threads",
                                     "--max-pending", "--read-timeout-ms",
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

  serve::ServerOptions options;
  options.bind_address = flags.value("--bind", std::string("127.0.0.1"));
  options.port = static_cast<std::uint16_t>(port);
  options.threads = flags.value("--threads", std::size_t{0});
  options.max_pending = flags.value("--max-pending", options.max_pending);
  options.read_timeout = std::chrono::milliseconds(static_cast<long>(
      flags.value("--read-timeout-ms", std::size_t{5000})));

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
  // acceptor and worker threads.
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
  cli_obs.write_artifacts(cli_obs.report());
  return 0;
}
