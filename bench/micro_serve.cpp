// micro_serve — sustained-QPS load generator for the patchdbd serving
// path. Spins up an in-process serve::Server over a small deterministic
// dataset (or targets a running daemon with --host/--port), opens
// --conns concurrent connections, and drives --reps request cycles per
// connection, where one cycle is the five query ops: lookup, features,
// nearest, stats, analyze. Client-side latency lands in the
// serve.client.* histograms; the summary gauges (serve.bench.qps,
// serve.bench.p50_ms, serve.bench.p99_ms) and exact request counters
// feed bench/BENCH_serve.json, which CI gates with tools/bench_diff on
// machine-independent rules (request counts and zero protocol errors —
// latency numbers vary with hardware and are recorded, not gated).
//
//   micro_serve [SCALE] [--conns N] [--reps N] [--k K]
//               [--host H --port P]            (skip in-process server)
//               [--metrics-out FILE] [--trace-out FILE] [--progress]
//
// SCALE multiplies the in-process dataset size (default 1.0), and may
// sit anywhere among the flags.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "corpus/world.h"
#include "diff/render.h"
#include "serve/client.h"
#include "serve/dataset.h"
#include "serve/server.h"

namespace {

using namespace patchdb;

/// One connection's worth of load: `reps` five-op cycles, latencies
/// appended to `latencies_out` under `mutex`.
void drive_connection(const std::string& host, std::uint16_t port,
                      const std::vector<std::string>& ids,
                      const std::string& analyze_text, std::size_t thread_id,
                      std::size_t reps, std::uint32_t k,
                      std::vector<double>& latencies_out, std::mutex& mutex,
                      std::atomic<std::uint64_t>& failures) {
  std::vector<double> local;
  local.reserve(reps * 5);
  const auto timed = [&](const char* op, auto&& call) {
    const auto start = std::chrono::steady_clock::now();
    serve::Response response;
    try {
      response = call();
    } catch (const std::exception&) {
      obs::counter_add("serve.client.protocol_errors", 1);
      failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    obs::counter_add("serve.client.requests", 1);
    obs::counter_add(std::string("serve.client.requests.") + op, 1);
    obs::histogram_observe("serve.client.request_ms", ms);
    obs::histogram_observe(std::string("serve.client.") + op + "_ms", ms);
    if (response.status != serve::Status::kOk) {
      obs::counter_add("serve.client.errors", 1);
      failures.fetch_add(1, std::memory_order_relaxed);
    }
    local.push_back(ms);
  };

  try {
    serve::Client client;
    client.connect(host, port);
    for (std::size_t i = 0; i < reps; ++i) {
      const std::string& id = ids[(thread_id * reps + i) % ids.size()];
      timed("lookup", [&] { return client.lookup(id); });
      timed("features", [&] { return client.features(id); });
      timed("nearest", [&] { return client.nearest_by_id(id, k); });
      timed("stats", [&] { return client.stats(); });
      timed("analyze", [&] { return client.analyze(analyze_text); });
    }
  } catch (const std::exception& e) {
    // Connect failure: every request this connection would have sent
    // counts as failed so the gate's exact-count rule trips.
    obs::counter_add("serve.client.protocol_errors", 1);
    failures.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "micro_serve: connection %zu: %s\n", thread_id,
                 e.what());
  }

  const std::lock_guard<std::mutex> lock(mutex);
  latencies_out.insert(latencies_out.end(), local.begin(), local.end());
}

double quantile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = lo + 1 < sorted.size() ? lo + 1 : lo;
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session("micro_serve", argc, argv,
                         {"--conns", "--reps", "--k", "--host", "--port"});
  const util::Flags& flags = session.flags();
  const std::size_t conns = flags.value("--conns", std::size_t{8});
  const std::size_t reps = flags.value("--reps", std::size_t{20});
  const auto k = static_cast<std::uint32_t>(flags.value("--k", std::size_t{5}));
  const std::string ext_host = flags.value("--host", std::string());
  const std::size_t ext_port = flags.value("--port", std::size_t{0});
  if (ext_port > 65535) {
    std::fprintf(stderr, "micro_serve: bad --port \"%zu\" (want 0..65535)\n", ext_port);
    return 2;
  }

  // Zero-seed the counters the CI gate asserts exact values on, so a
  // run with no failures still reports them as explicit zeros.
  obs::counter_add("serve.client.requests", 0);
  obs::counter_add("serve.client.errors", 0);
  obs::counter_add("serve.client.protocol_errors", 0);

  // In-process server over a small deterministic world, unless the load
  // is aimed at an external daemon.
  serve::ServedDataset dataset;
  std::unique_ptr<serve::Server> server;
  std::string host = ext_host.empty() ? "127.0.0.1" : ext_host;
  std::uint16_t port = static_cast<std::uint16_t>(ext_port);
  if (ext_host.empty() || ext_port == 0) {
    corpus::WorldConfig config;
    config.repos = 8;
    config.nvd_security = bench::scaled(48, session.scale());
    config.wild_pool = bench::scaled(240, session.scale());
    config.seed = 907;
    corpus::World world = corpus::build_world(config);
    std::vector<corpus::CommitRecord> wild(
        world.wild.begin(),
        world.wild.begin() +
            static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                bench::scaled(32, session.scale()), world.wild.size())));
    dataset = serve::ServedDataset::from_components(
        std::move(world.nvd_security), std::move(wild),
        bench::make_nonsecurity_set(bench::scaled(32, session.scale()), 911),
        {});
    serve::ServerOptions options;
    options.max_connections = conns + 1;  // the load's and the setup's
    server = std::make_unique<serve::Server>(dataset, options);
    server->start();
    port = server->port();
  }

  // The request mix every connection cycles through.
  serve::Client setup;
  setup.connect(host, port);
  serve::Response ids_response = setup.list_ids();
  if (ids_response.status != serve::Status::kOk ||
      ids_response.list_ids.ids.empty()) {
    std::fprintf(stderr, "micro_serve: cannot list ids from %s:%u\n",
                 host.c_str(), port);
    return 1;
  }
  const std::vector<std::string> ids = std::move(ids_response.list_ids.ids);
  const serve::Response seed_patch = setup.lookup(ids.front());
  if (seed_patch.status != serve::Status::kOk) {
    std::fprintf(stderr, "micro_serve: seed lookup failed\n");
    return 1;
  }
  const std::string analyze_text = seed_patch.lookup.patch_text;
  setup.close();

  std::printf("micro_serve: %zu connections x %zu cycles x 5 ops against "
              "%s:%u (%zu ids)\n",
              conns, reps, host.c_str(), port, ids.size());

  std::vector<double> latencies;
  std::mutex latencies_mutex;
  std::atomic<std::uint64_t> failures{0};
  const auto load_start = std::chrono::steady_clock::now();
  {
    obs::ScopedSpan span("serve.bench.load");
    std::vector<std::thread> threads;
    threads.reserve(conns);
    for (std::size_t t = 0; t < conns; ++t) {
      threads.emplace_back([&, t] {
        drive_connection(host, port, ids, analyze_text, t, reps, k, latencies,
                         latencies_mutex, failures);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double load_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - load_start)
                             .count();

  if (server) server->stop();

  std::sort(latencies.begin(), latencies.end());
  const double p50 = quantile(latencies, 0.50);
  const double p99 = quantile(latencies, 0.99);
  const double qps = load_ms > 0.0
                         ? static_cast<double>(latencies.size()) /
                               (load_ms / 1000.0)
                         : 0.0;
  obs::gauge_set("serve.bench.conns", static_cast<double>(conns));
  obs::gauge_set("serve.bench.qps", qps);
  obs::gauge_set("serve.bench.p50_ms", p50);
  obs::gauge_set("serve.bench.p99_ms", p99);
  session.add_items(latencies.size());

  std::printf("micro_serve: %zu requests in %.1f ms — %.0f req/s, "
              "p50 %.3f ms, p99 %.3f ms, %llu failures\n",
              latencies.size(), load_ms, qps, p50, p99,
              static_cast<unsigned long long>(
                  failures.load(std::memory_order_relaxed)));
  return failures.load(std::memory_order_relaxed) == 0 ? 0 : 1;
}
