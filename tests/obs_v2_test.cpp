// Tests for the second observability layer: Chrome trace export (golden
// round-trip through the repo's own JSON parser), the background
// resource sampler (including concurrent access — this file runs under
// the TSan CI job), the ObsSession an artifact request drives, progress
// heartbeats, the bench_diff rule engine, the live span-drop counter,
// and the one report schema.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/diff.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace patchdb {
namespace {

// Builds a deterministic two-thread report: main opens "root" with a
// nested "child", worker thread 1 runs "side", and three resource
// samples ride along. All times are hand-picked so nesting and counter
// assertions are exact.
obs::RunReport golden_report() {
  obs::RunReport report;
  report.name = "golden";
  report.wall_ms = 5.0;

  obs::SpanRecord root;
  root.name = "root";
  root.thread_index = 0;
  root.span_id = 1;
  root.parent_id = 0;
  root.depth = 0;
  root.start_us = 100;
  root.wall_us = 4000;
  root.cpu_us = 3000;

  obs::SpanRecord child;
  child.name = "child";
  child.thread_index = 0;
  child.span_id = 2;
  child.parent_id = 1;
  child.depth = 1;
  child.start_us = 600;
  child.wall_us = 1500;

  obs::SpanRecord side;
  side.name = "side";
  side.thread_index = 1;
  side.span_id = 3;
  side.parent_id = 0;
  side.depth = 0;
  side.start_us = 700;
  side.wall_us = 2000;

  report.spans = {root, child, side};

  obs::ResourceSample s0;
  s0.t_us = 0;
  s0.rss_bytes = 64ull << 20;
  s0.peak_rss_bytes = 64ull << 20;
  s0.cpu_us = 0;
  obs::ResourceSample s1 = s0;
  s1.t_us = 2000;
  s1.rss_bytes = 96ull << 20;
  s1.peak_rss_bytes = 96ull << 20;
  s1.cpu_us = 1000;  // 1000 µs CPU over 2000 µs wall = 0.5 cores busy
  s1.pool_pending = 3;
  obs::ResourceSample s2 = s1;
  s2.t_us = 4000;
  s2.cpu_us = 5000;  // 4000 µs over 2000 µs = 2.0 cores busy
  s2.pool_pending = 0;
  report.resource_timeline = {s0, s1, s2};
  return report;
}

std::vector<obs::Json> events_where(const obs::Json& trace,
                                    const std::string& ph) {
  std::vector<obs::Json> out;
  for (const obs::Json& e : trace.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == ph) out.push_back(e);
  }
  return out;
}

// -------------------------------------------------------- trace export --

TEST(ObsExport, GoldenTraceRoundTripsThroughOwnParser) {
  const obs::RunReport report = golden_report();
  // Serialize with the writer, then parse back with the repo's own
  // parser — the exported document must survive its own toolchain.
  const obs::Json trace =
      obs::Json::parse(obs::trace_events_json(report).dump(2));

  EXPECT_EQ(trace.at("displayTimeUnit").as_string(), "ms");
  EXPECT_EQ(trace.at("otherData").at("report").as_string(), "golden");
  EXPECT_EQ(trace.at("otherData").at("schema").as_string(), "patchdb.obs.v2");

  // Thread-track metadata: a process name plus one thread_name per
  // thread that recorded spans (two here).
  std::vector<std::string> thread_names;
  for (const obs::Json& meta : events_where(trace, "M")) {
    if (meta.at("name").as_string() == "thread_name") {
      thread_names.push_back(meta.at("args").at("name").as_string());
    } else {
      EXPECT_EQ(meta.at("name").as_string(), "process_name");
      EXPECT_EQ(meta.at("args").at("name").as_string(), "patchdb: golden");
    }
  }
  ASSERT_EQ(thread_names.size(), 2u);
  EXPECT_EQ(thread_names[0], "main");
  EXPECT_EQ(thread_names[1], "worker 1");

  const std::vector<obs::Json> spans = events_where(trace, "X");
  ASSERT_EQ(spans.size(), 3u);
  const obs::Json& root = spans[0];
  const obs::Json& child = spans[1];
  const obs::Json& side = spans[2];
  EXPECT_EQ(root.at("name").as_string(), "root");
  EXPECT_EQ(root.at("ts").as_number(), 100.0);
  EXPECT_EQ(root.at("dur").as_number(), 4000.0);
  EXPECT_EQ(root.at("args").at("cpu_us").as_number(), 3000.0);
  // Nesting: the child's [ts, ts+dur) interval sits inside the root's
  // on the same tid — that containment is what chrome://tracing uses to
  // stack the flame graph.
  EXPECT_EQ(child.at("tid").as_number(), root.at("tid").as_number());
  EXPECT_EQ(child.at("args").at("parent_id").as_number(),
            root.at("args").at("span_id").as_number());
  EXPECT_GE(child.at("ts").as_number(), root.at("ts").as_number());
  EXPECT_LE(child.at("ts").as_number() + child.at("dur").as_number(),
            root.at("ts").as_number() + root.at("dur").as_number());
  EXPECT_EQ(side.at("tid").as_number(), 1.0);
  EXPECT_EQ(side.at("args").at("depth").as_number(), 0.0);
}

TEST(ObsExport, CounterTracksIncludeCpuRate) {
  const obs::Json trace = obs::trace_events_json(golden_report());
  double last_rss = -1.0;
  std::vector<double> cpu_rates;
  for (const obs::Json& counter : events_where(trace, "C")) {
    const std::string& track = counter.at("name").as_string();
    if (track == "rss_mb") last_rss = counter.at("args").at("rss").as_number();
    if (track == "cpu_cores") {
      cpu_rates.push_back(counter.at("args").at("busy").as_number());
    }
  }
  EXPECT_EQ(last_rss, 96.0);
  // The cumulative CPU sample becomes a rate between consecutive
  // samples, so 3 samples yield 2 points: 0.5 then 2.0 cores.
  ASSERT_EQ(cpu_rates.size(), 2u);
  EXPECT_DOUBLE_EQ(cpu_rates[0], 0.5);
  EXPECT_DOUBLE_EQ(cpu_rates[1], 2.0);
}

TEST(ObsExport, WriteTraceFileRoundTripsAndFailsLoudly) {
  const obs::RunReport report = golden_report();
  const std::string path =
      testing::TempDir() + "/obs_v2_trace_roundtrip.json";
  obs::write_trace_file(report, path);

  std::string text;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  const obs::Json trace = obs::Json::parse(text);
  EXPECT_EQ(trace.at("traceEvents").as_array().size(),
            obs::trace_events_json(report).at("traceEvents").as_array().size());
  std::remove(path.c_str());

  EXPECT_THROW(
      obs::write_trace_file(report, "/nonexistent-dir/trace.json"),
      std::runtime_error);
}

// ------------------------------------------------------------ sampler --

TEST(ObsSampler, RecordsMonotonicTimelineWhileRunning) {
  obs::ResourceSampler::Options options;
  options.interval = std::chrono::milliseconds(1);
  obs::ResourceSampler sampler(options);
  sampler.start();
  EXPECT_TRUE(sampler.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sampler.stop();
  EXPECT_FALSE(sampler.running());

  const std::vector<obs::ResourceSample> samples = sampler.samples();
  // start() records t=0 immediately and stop() records a final sample,
  // so even a scheduler-starved run yields at least two points.
  ASSERT_GE(samples.size(), 2u);
  EXPECT_EQ(samples.front().t_us, 0);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].t_us, samples[i - 1].t_us);
    EXPECT_GE(samples[i].cpu_us, samples[i - 1].cpu_us);
    EXPECT_GE(samples[i].peak_rss_bytes, samples[i - 1].peak_rss_bytes);
  }
#if defined(__linux__)
  EXPECT_GT(samples.front().rss_bytes, 0u);  // procfs present
#endif
}

TEST(ObsSampler, ConcurrentReadersSeeConsistentState) {
  obs::ResourceSampler::Options options;
  options.interval = std::chrono::milliseconds(1);
  obs::ResourceSampler sampler(options);
  sampler.start();
  sampler.start();  // second start is a no-op, not a second thread

  // Hammer the read API from several threads while the sampler thread
  // writes; TSan verifies every access is properly synchronized.
  std::atomic<bool> go{true};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (go.load(std::memory_order_relaxed)) {
        const std::vector<obs::ResourceSample> snap = sampler.samples();
        for (std::size_t i = 1; i < snap.size(); ++i) {
          ASSERT_GE(snap[i].t_us, snap[i - 1].t_us);
        }
        (void)sampler.overflow();
        (void)sampler.running();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  go.store(false, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  sampler.stop();
  sampler.stop();  // idempotent
  EXPECT_GE(sampler.samples().size(), 2u);
}

TEST(ObsSampler, OverflowCountsInsteadOfGrowing) {
  obs::ResourceSampler::Options options;
  options.interval = std::chrono::milliseconds(1);
  options.max_samples = 3;
  obs::ResourceSampler sampler(options);
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.stop();
  EXPECT_LE(sampler.samples().size(), 3u);
  EXPECT_GT(sampler.overflow(), 0u);
}

TEST(ObsSampler, SampleNowWorksWithoutThread) {
  util::ThreadPool pool(2);
  const obs::ResourceSample s = obs::ResourceSampler::sample_now(&pool);
  EXPECT_EQ(s.t_us, 0);
  EXPECT_EQ(s.pool_threads, 2u);
  EXPECT_GE(s.cpu_us, 0);
}

/// A metrics request whose file lands in the test's temp directory.
obs::ArtifactRequest metrics_request(const std::string& file) {
  obs::ArtifactRequest request;
  request.metrics_out = ::testing::TempDir() + file;
  return request;
}

TEST(ObsSampler, TimelineRidesAlongInSessionReport) {
  obs::ObsSession session("sampler_report_test",
                          metrics_request("sampler_report_test.json"));
  if (!session.installed()) GTEST_SKIP() << "PATCHDB_OBS_DISABLED set";
  { PATCHDB_TRACE_SPAN("sampler.work"); }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  const obs::RunReport report = session.report();
  ASSERT_GE(report.resource_timeline.size(), 2u);
  // Re-anchored onto the tracer epoch: a sampler started after the
  // tracer cannot produce negative timestamps.
  EXPECT_GE(report.resource_timeline.front().t_us, 0);

  // And the timeline survives the report round trip.
  const obs::RunReport back = obs::RunReport::from_json(report.to_json());
  ASSERT_EQ(back.resource_timeline.size(), report.resource_timeline.size());
  EXPECT_EQ(back.resource_timeline.back().rss_bytes,
            report.resource_timeline.back().rss_bytes);
  EXPECT_EQ(back.resource_timeline.back().t_us,
            report.resource_timeline.back().t_us);
}

// ------------------------------------------------------------ session --

TEST(ObsSession, MetricsRequestWritesReportWithTimelineAndPoolShape) {
  const obs::ArtifactRequest request = metrics_request("obs_session_test.json");
  std::remove(request.metrics_out.c_str());
  obs::ObsSession session("obs_session_test", request);
  if (!session.installed()) GTEST_SKIP() << "PATCHDB_OBS_DISABLED set";
  util::ThreadPool& pool = util::default_pool();
  pool.parallel_for(64, [](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const obs::RunReport report = session.report();
  ASSERT_TRUE(session.write_artifacts(report));

  const obs::RunReport written = obs::read_report_file(request.metrics_out);
  EXPECT_EQ(written.name, "obs_session_test");
  EXPECT_GE(written.resource_timeline.size(), 2u);
  EXPECT_EQ(written.metrics.gauges.count("proc.rss_bytes"), 1u);
  // The pool's shape: its size, the workers that ran a task, and one
  // busy-time observation per worker.
  EXPECT_EQ(written.metrics.gauge("pool.threads"),
            static_cast<double>(pool.size()));
  EXPECT_GE(written.metrics.gauge("pool.workers_active"), 1.0);
  EXPECT_LE(written.metrics.gauge("pool.workers_active"),
            static_cast<double>(pool.size()));
  const obs::HistogramSnapshot* busy =
      written.metrics.histogram("pool.worker_busy_ms");
  ASSERT_NE(busy, nullptr);
  EXPECT_EQ(busy->count, pool.size());
  EXPECT_GT(busy->max, 0.0);

  // The shape is computed into each report, not recorded into the
  // registry, so a second report does not count it twice.
  const obs::RunReport again = session.report();
  ASSERT_NE(again.metrics.histogram("pool.worker_busy_ms"), nullptr);
  EXPECT_EQ(again.metrics.histogram("pool.worker_busy_ms")->count, pool.size());
  EXPECT_EQ(again.resource_timeline.size(), report.resource_timeline.size());
  std::remove(request.metrics_out.c_str());
}

TEST(ObsSession, ReportsOnlyItsOwnPoolWork) {
  util::ThreadPool& pool = util::default_pool();
  {
    obs::ObsSession first("obs_session_first");
    if (!first.installed()) GTEST_SKIP() << "PATCHDB_OBS_DISABLED set";
    pool.parallel_for(64, [](std::size_t, std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
    EXPECT_GE(first.report().metrics.gauge("pool.workers_active"), 1.0);
  }
  // A later session that runs no pool work reports an idle pool: the
  // first session's busy time is not its own.
  obs::ObsSession second("obs_session_second");
  const obs::RunReport report = second.report();
  EXPECT_EQ(report.metrics.gauges.count("pool.workers_active"), 1u);
  EXPECT_EQ(report.metrics.gauge("pool.workers_active"), 0.0);
  const obs::HistogramSnapshot* busy =
      report.metrics.histogram("pool.worker_busy_ms");
  ASSERT_NE(busy, nullptr);
  EXPECT_EQ(busy->count, pool.size());
  EXPECT_EQ(busy->max, 0.0);
  EXPECT_EQ(report.metrics.gauges.count("pool.utilization"), 0u);
}

TEST(ObsSession, NoRequestRunsNoSampler) {
  obs::ObsSession session("obs_session_bare");
  if (!session.installed()) GTEST_SKIP() << "PATCHDB_OBS_DISABLED set";
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const obs::RunReport report = session.report();
  EXPECT_TRUE(report.resource_timeline.empty());
  EXPECT_EQ(report.metrics.gauges.count("proc.rss_bytes"), 0u);
  // Every report carries the pool's shape, requested artifact or not.
  EXPECT_EQ(report.metrics.gauges.count("pool.workers_active"), 1u);
  ASSERT_NE(report.metrics.histogram("pool.worker_busy_ms"), nullptr);
}

// ----------------------------------------------------------- progress --

TEST(ObsProgress, DisabledByDefaultAndCountsTicks) {
  ASSERT_EQ(obs::progress_interval_ms(), 0u);
  obs::Progress progress("test.loop", 100);
  for (int i = 0; i < 7; ++i) progress.tick();
  progress.tick(3);
  EXPECT_EQ(progress.done(), 10u);
  progress.finish();
  progress.finish();  // idempotent; destructor will be the third call
}

TEST(ObsProgress, TicksAreThreadSafeWhenEnabled) {
  obs::set_progress_interval_ms(1);
  {
    obs::Progress progress("test.concurrent", 4000);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 1000; ++i) progress.tick();
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(progress.done(), 4000u);
  }
  obs::set_progress_interval_ms(0);
}

TEST(ObsProgress, UnknownTotalStillTicks) {
  obs::Progress progress("test.unbounded");  // total 0 = unknown
  progress.tick(42);
  EXPECT_EQ(progress.done(), 42u);
}

// ----------------------------------------------------------- span ring --

TEST(ObsSpanRing, OverflowingSessionCountsDropsLive) {
  obs::ObsSession session("ring_overflow_test");
  if (!session.installed()) GTEST_SKIP() << "PATCHDB_OBS_DISABLED set";
  for (std::size_t i = 0; i < obs::kSpanRingCapacity + 6; ++i) {
    PATCHDB_TRACE_SPAN("ring.overflow");
  }
  const obs::RunReport report = session.report();
  EXPECT_EQ(report.spans.size(), obs::kSpanRingCapacity);
  EXPECT_EQ(report.spans_dropped, 6u);
  // The live counter lets a sampler/metrics reader observe drops
  // mid-run instead of only in the final report.
  EXPECT_EQ(report.metrics.counter("obs.spans_dropped"), 6u);
}

// ---------------------------------------------------- obs env disable --

TEST(ObsSpanRing, ObsDisabledEnvMakesSessionsInert) {
  ASSERT_EQ(setenv("PATCHDB_OBS_DISABLED", "1", 1), 0);
  EXPECT_TRUE(obs::obs_env_disabled());
  {
    obs::ObsSession session("disabled_test");
    EXPECT_FALSE(session.installed());
    EXPECT_EQ(obs::tracer(), nullptr);
    PATCHDB_COUNTER_ADD("disabled.counter", 5);
    { PATCHDB_TRACE_SPAN("disabled.span"); }
    const obs::RunReport report = session.report();
    EXPECT_EQ(report.metrics.counter("disabled.counter"), 0u);
    EXPECT_TRUE(report.spans.empty());
  }
  ASSERT_EQ(setenv("PATCHDB_OBS_DISABLED", "0", 1), 0);
  EXPECT_FALSE(obs::obs_env_disabled());  // explicit "0" means enabled
  ASSERT_EQ(unsetenv("PATCHDB_OBS_DISABLED"), 0);
  EXPECT_FALSE(obs::obs_env_disabled());
}

// -------------------------------------------------- histogram quantile --

TEST(ObsHistogramEdge, EmptyHistogramQuantileIsPinnedToZero) {
  obs::HistogramSnapshot empty;
  empty.name = "empty.hist";
  // No observations: every statistic reads 0, never inf/NaN from the
  // min/max sentinels.
  EXPECT_EQ(empty.quantile(0.0), 0.0);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.quantile(0.95), 0.0);
  EXPECT_EQ(empty.quantile(1.0), 0.0);
  EXPECT_EQ(empty.mean(), 0.0);

  // And an empty histogram renders without poisoning the report.
  obs::RunReport report;
  report.name = "empty_hist_render";
  report.metrics.histograms.push_back(empty);
  const std::string text = report.render();
  EXPECT_NE(text.find("empty.hist"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

// ------------------------------------------------------------- schema --

TEST(ObsReportCompat, V2OmitsEmptyTimelineAndKeepsNonEmptyOne) {
  obs::RunReport no_samples;
  no_samples.name = "v2_no_timeline";
  EXPECT_FALSE(no_samples.to_json().contains("resource_timeline"));

  obs::RunReport with_samples = golden_report();
  const obs::Json json = with_samples.to_json();
  ASSERT_TRUE(json.contains("resource_timeline"));
  EXPECT_EQ(json.at("resource_timeline").as_array().size(), 3u);
  EXPECT_EQ(obs::RunReport::from_json(json).resource_timeline.size(), 3u);
}

TEST(ObsReportCompat, UnsupportedSchemaIsRejected) {
  obs::Json json = golden_report().to_json();
  EXPECT_EQ(json.at("schema").as_string(), obs::kReportSchemaV2);
  // v1 included: nothing writes it, and no committed artifact is v1.
  for (const char* schema : {"patchdb.obs.v1", "patchdb.obs.v99"}) {
    json.set("schema", obs::Json(schema));
    EXPECT_THROW(obs::RunReport::from_json(json), obs::JsonError) << schema;
  }
}

// ---------------------------------------------------------- diff rules --

obs::RunReport diff_fixture(double wall_ms, double reduction,
                            std::uint64_t identical) {
  obs::RunReport report;
  report.name = "diff_fixture";
  report.wall_ms = wall_ms;
  report.metrics.counters["bench.identical"] = identical;
  report.metrics.gauges["bench.memory_reduction"] = reduction;
  obs::HistogramSnapshot hist;
  hist.name = "tile_ms";
  hist.count = 4;
  hist.sum = 40.0;
  hist.min = 5.0;
  hist.max = 15.0;
  hist.bounds = {10.0};
  hist.buckets = {2, 2};
  report.metrics.histograms.push_back(hist);
  return report;
}

TEST(ObsDiff, LookupResolvesEveryMetricKind) {
  const obs::RunReport report = diff_fixture(100.0, 50.0, 1);
  EXPECT_EQ(lookup_metric(report, "wall_ms"), 100.0);
  EXPECT_EQ(lookup_metric(report, "bench.identical"), 1.0);
  EXPECT_EQ(lookup_metric(report, "bench.memory_reduction"), 50.0);
  EXPECT_EQ(lookup_metric(report, "tile_ms@count"), 4.0);
  EXPECT_EQ(lookup_metric(report, "tile_ms@mean"), 10.0);
  EXPECT_EQ(lookup_metric(report, "tile_ms@max"), 15.0);
  ASSERT_TRUE(lookup_metric(report, "tile_ms@p95").has_value());
  EXPECT_GE(*lookup_metric(report, "tile_ms@p95"), 10.0);
  EXPECT_FALSE(lookup_metric(report, "no.such.metric").has_value());
  EXPECT_FALSE(lookup_metric(report, "tile_ms@p0.0.1").has_value());
}

TEST(ObsDiff, ThresholdRulesPassAndFail) {
  const obs::RunReport baseline = diff_fixture(100.0, 50.0, 1);
  const obs::RunReport candidate = diff_fixture(130.0, 20.0, 1);

  obs::DiffRule wall;
  wall.kind = obs::DiffRule::Kind::kMaxIncrease;
  wall.metric = "wall_ms";
  wall.threshold_pct = 50.0;
  obs::DiffRule wall_tight = wall;
  wall_tight.threshold_pct = 10.0;
  obs::DiffRule reduction;
  reduction.kind = obs::DiffRule::Kind::kMaxDecrease;
  reduction.metric = "bench.memory_reduction";
  reduction.threshold_pct = 50.0;

  const std::vector<obs::DiffResult> results = obs::diff_reports(
      baseline, candidate, {wall, wall_tight, reduction});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);   // +30% within the 50% budget
  EXPECT_FALSE(results[1].ok);  // +30% breaks the 10% budget
  EXPECT_FALSE(results[2].ok);  // -60% breaks the 50% floor
  EXPECT_NE(results[1].message.find("wall_ms"), std::string::npos);
}

TEST(ObsDiff, RequireAndMissingMetricSemantics) {
  const obs::RunReport baseline = diff_fixture(100.0, 50.0, 1);
  const obs::RunReport candidate = diff_fixture(100.0, 50.0, 0);

  obs::DiffRule exists;
  exists.kind = obs::DiffRule::Kind::kRequire;
  exists.metric = "bench.memory_reduction";
  obs::DiffRule identical;
  identical.kind = obs::DiffRule::Kind::kRequire;
  identical.metric = "bench.identical";
  identical.required_value = 1.0;
  identical.has_required_value = true;
  obs::DiffRule missing;
  missing.kind = obs::DiffRule::Kind::kMaxIncrease;
  missing.metric = "ghost.metric";
  missing.threshold_pct = 1000.0;

  const std::vector<obs::DiffResult> results =
      obs::diff_reports(baseline, candidate, {exists, identical, missing});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);  // candidate's identical=0 != required 1
  EXPECT_FALSE(results[2].ok);  // absent on both sides still fails loudly
}

TEST(ObsDiff, MinRuleIsAnAbsoluteCandidateFloor) {
  // --min never consults the baseline: the floor is machine-independent
  // (e.g. pool.threads >= 2, speedup >= 2 in CI), so a stale or absent
  // baseline metric cannot mask it.
  obs::RunReport baseline = diff_fixture(100.0, 50.0, 1);
  obs::RunReport candidate = diff_fixture(100.0, 50.0, 1);
  candidate.metrics.gauges["pool.threads"] = 4.0;

  obs::DiffRule floor_ok;
  floor_ok.kind = obs::DiffRule::Kind::kMin;
  floor_ok.metric = "pool.threads";
  floor_ok.required_value = 2.0;
  obs::DiffRule floor_bad = floor_ok;
  floor_bad.required_value = 8.0;
  obs::DiffRule floor_missing = floor_ok;
  floor_missing.metric = "ghost.metric";

  const std::vector<obs::DiffResult> results = obs::diff_reports(
      baseline, candidate, {floor_ok, floor_bad, floor_missing});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);   // 4 >= 2
  EXPECT_FALSE(results[1].ok);  // 4 < 8
  EXPECT_FALSE(results[2].ok);  // missing from candidate fails loudly
  EXPECT_NE(results[1].message.find("floor"), std::string::npos);
}

TEST(ObsDiff, ZeroBaselineOnlyPassesWhenCandidateIsZeroToo) {
  obs::RunReport baseline = diff_fixture(100.0, 50.0, 1);
  baseline.metrics.gauges["zero.gauge"] = 0.0;
  obs::RunReport clean = baseline;
  obs::RunReport dirty = baseline;
  dirty.metrics.gauges["zero.gauge"] = 3.0;

  obs::DiffRule rule;
  rule.kind = obs::DiffRule::Kind::kMaxIncrease;
  rule.metric = "zero.gauge";
  rule.threshold_pct = 50.0;
  EXPECT_TRUE(obs::diff_reports(baseline, clean, {rule})[0].ok);
  EXPECT_FALSE(obs::diff_reports(baseline, dirty, {rule})[0].ok);
}

TEST(ObsDiff, SpecParsing) {
  obs::DiffRule rule;
  std::string error;
  ASSERT_TRUE(obs::parse_threshold_spec(
      "wall_ms:25", obs::DiffRule::Kind::kMaxIncrease, rule, error));
  EXPECT_EQ(rule.metric, "wall_ms");
  EXPECT_EQ(rule.threshold_pct, 25.0);
  ASSERT_TRUE(obs::parse_threshold_spec(
      "link.tile_ms@p95:12.5", obs::DiffRule::Kind::kMaxDecrease, rule, error));
  EXPECT_EQ(rule.metric, "link.tile_ms@p95");
  EXPECT_EQ(rule.threshold_pct, 12.5);

  EXPECT_FALSE(obs::parse_threshold_spec(
      "wall_ms", obs::DiffRule::Kind::kMaxIncrease, rule, error));
  EXPECT_FALSE(obs::parse_threshold_spec(
      "wall_ms:", obs::DiffRule::Kind::kMaxIncrease, rule, error));
  EXPECT_FALSE(obs::parse_threshold_spec(
      "wall_ms:5x", obs::DiffRule::Kind::kMaxIncrease, rule, error));
  EXPECT_FALSE(obs::parse_threshold_spec(
      ":25", obs::DiffRule::Kind::kMaxIncrease, rule, error));

  ASSERT_TRUE(obs::parse_require_spec("bench.identical=1", rule, error));
  EXPECT_EQ(rule.metric, "bench.identical");
  EXPECT_TRUE(rule.has_required_value);
  EXPECT_EQ(rule.required_value, 1.0);
  ASSERT_TRUE(obs::parse_require_spec("bench.speedup", rule, error));
  EXPECT_FALSE(rule.has_required_value);
  EXPECT_FALSE(obs::parse_require_spec("", rule, error));
  EXPECT_FALSE(obs::parse_require_spec("metric=abc", rule, error));

  ASSERT_TRUE(obs::parse_min_spec("pool.threads:2", rule, error));
  EXPECT_EQ(rule.kind, obs::DiffRule::Kind::kMin);
  EXPECT_EQ(rule.metric, "pool.threads");
  EXPECT_EQ(rule.required_value, 2.0);
  ASSERT_TRUE(obs::parse_min_spec("bench.speedup:2.5", rule, error));
  EXPECT_EQ(rule.required_value, 2.5);
  EXPECT_FALSE(obs::parse_min_spec("pool.threads", rule, error));
  EXPECT_FALSE(obs::parse_min_spec("pool.threads:", rule, error));
  EXPECT_FALSE(obs::parse_min_spec(":2", rule, error));
  EXPECT_FALSE(obs::parse_min_spec("pool.threads:2x", rule, error));
}

}  // namespace
}  // namespace patchdb
