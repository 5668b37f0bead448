// Tests for the observability layer (src/obs): JSON value model,
// metrics registry under thread contention, scoped-span tracing,
// RunReport serialization, ObsSession nesting, and the zero-allocation
// guarantee of the disabled (no sink installed) fast path.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

// ------------------------------------------------- allocation counter --
// Counting global operator new lets the disabled-path test assert that
// instrumentation with no sink installed performs zero heap allocations.
// All variants route through malloc/free so mixed pairings stay valid.
// Sanitizer builds keep the stock allocator (replacing operator new
// fights ASan's own interceptors); there the test still exercises the
// disabled path, just without the allocation count.

#if defined(__SANITIZE_ADDRESS__)
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PATCHDB_TEST_ASAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define PATCHDB_TEST_ASAN 1
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

#if !defined(PATCHDB_TEST_ASAN)
#define PATCHDB_TEST_COUNTS_ALLOCS 1

namespace {
void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // !PATCHDB_TEST_ASAN

namespace patchdb {
namespace {

// --------------------------------------------------------------- json --

TEST(Json, ParsesScalarsAndStructures) {
  const obs::Json v = obs::Json::parse(
      R"({"a": 1, "b": [true, null, "x\n\"y\""], "c": {"d": -2.5}})");
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_number(), 1.0);
  EXPECT_TRUE(v.at("b").is_array());
  EXPECT_EQ(v.at("b").as_array().size(), 3u);
  EXPECT_TRUE(v.at("b").as_array()[0].as_bool());
  EXPECT_TRUE(v.at("b").as_array()[1].is_null());
  EXPECT_EQ(v.at("b").as_array()[2].as_string(), "x\n\"y\"");
  EXPECT_EQ(v.at("c").at("d").as_number(), -2.5);
}

TEST(Json, RoundTripsThroughDump) {
  const std::string text =
      R"({"arr":[1,2,3],"big":9007199254740992,"neg":-7,"obj":{"k":"v"},"ratio":0.25})";
  const obs::Json v = obs::Json::parse(text);
  EXPECT_EQ(obs::Json::parse(v.dump()), v);
  EXPECT_EQ(obs::Json::parse(v.dump(2)), v);  // pretty form parses equal
}

TEST(Json, IntegersSurviveExactly) {
  obs::Json v = obs::Json::object();
  v.set("count", obs::Json(static_cast<unsigned long long>(1234567890123ULL)));
  const obs::Json back = obs::Json::parse(v.dump());
  EXPECT_EQ(back.at("count").as_number(), 1234567890123.0);
  EXPECT_NE(v.dump().find("1234567890123"), std::string::npos);
  EXPECT_EQ(v.dump().find("1234567890123."), std::string::npos);
}

TEST(Json, ThrowsOnMalformedInput) {
  EXPECT_THROW(obs::Json::parse("{"), obs::JsonError);
  EXPECT_THROW(obs::Json::parse("[1,]"), obs::JsonError);
  EXPECT_THROW(obs::Json::parse("{\"a\":1} trailing"), obs::JsonError);
  EXPECT_THROW(obs::Json::parse("nul"), obs::JsonError);
  EXPECT_THROW(obs::Json(1.0).at("k"), obs::JsonError);
}

TEST(Json, CopyOnWriteDoesNotAliasMutations) {
  obs::Json a = obs::Json::object();
  a.set("k", obs::Json(1));
  obs::Json b = a;  // shares the payload
  b.set("k", obs::Json(2));
  EXPECT_EQ(a.at("k").as_number(), 1.0);
  EXPECT_EQ(b.at("k").as_number(), 2.0);
}

// ------------------------------------------------------------ metrics --

TEST(Metrics, CounterIsExactUnderContention) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      obs::Counter& c = registry.counter("contended");
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.snapshot().counter("contended"), kThreads * kPerThread);
}

TEST(Metrics, HistogramIsExactUnderContention) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      obs::Histogram& h =
          registry.histogram("latency", obs::BucketLayout::time_ms());
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>(t) + 0.5);  // 0.5 .. 7.5
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::HistogramSnapshot* h = snap.histogram("latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<std::uint64_t>(kThreads * kPerThread));
  // Sum of t+0.5 over t in [0,8) times kPerThread.
  EXPECT_NEAR(h->sum, 32.0 * kPerThread, 1e-6);
  EXPECT_DOUBLE_EQ(h->min, 0.5);
  EXPECT_DOUBLE_EQ(h->max, 7.5);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : h->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h->count);
  // Quantiles are monotone and bracketed by min/max.
  const double p50 = h->quantile(0.5);
  const double p95 = h->quantile(0.95);
  EXPECT_LE(h->min, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, h->max + 1e-9);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::MetricsRegistry registry;
  registry.gauge("g").set(2.5);
  registry.gauge("g").add(-1.0);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauge("g"), 1.5);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauge("missing"), 0.0);
}

TEST(Metrics, HelpersAreNoopsWithoutRegistry) {
  ASSERT_EQ(obs::registry(), nullptr);
  // Must not crash or install anything.
  obs::counter_add("nobody.home", 3);
  obs::gauge_set("nobody.home", 1.0);
  obs::histogram_observe("nobody.home", 1.0);
  EXPECT_EQ(obs::registry(), nullptr);
}

TEST(Metrics, HelpersRouteToInstalledRegistry) {
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* previous = obs::install_registry(&registry);
  obs::counter_add("routed.counter", 2);
  obs::counter_add("routed.counter", 3);
  obs::gauge_set("routed.gauge", 0.75);
  obs::histogram_observe("routed.hist", 1.25);
  obs::install_registry(previous);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("routed.counter"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauge("routed.gauge"), 0.75);
  ASSERT_NE(snap.histogram("routed.hist"), nullptr);
  EXPECT_EQ(snap.histogram("routed.hist")->count, 1u);
}

// -------------------------------------------------------------- trace --

TEST(Trace, SpansNestAndRecordParents) {
  obs::Tracer tracer;
  obs::Tracer* previous = obs::install_tracer(&tracer);
  {
    obs::ScopedSpan outer("outer");
    { obs::ScopedSpan inner("inner"); }
    { obs::ScopedSpan inner2("inner2"); }
  }
  obs::install_tracer(previous);

  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Single thread: snapshot is ordered by start time.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[2].name, "inner2");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].parent_id, spans[0].span_id);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].parent_id, spans[0].span_id);
  EXPECT_LE(spans[0].start_us, spans[1].start_us);
  EXPECT_LE(spans[1].start_us, spans[2].start_us);
  EXPECT_GE(spans[0].wall_us, spans[1].wall_us + spans[2].wall_us - 1);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Trace, ThreadsGetDistinctIndices) {
  obs::Tracer tracer;
  obs::Tracer* previous = obs::install_tracer(&tracer);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      obs::ScopedSpan root("per_thread.root");
      obs::ScopedSpan child("per_thread.child");
    });
  }
  for (std::thread& t : threads) t.join();
  obs::install_tracer(previous);

  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u * kThreads);
  std::vector<bool> seen(kThreads, false);
  for (const obs::SpanRecord& s : spans) {
    ASSERT_LT(s.thread_index, static_cast<std::uint32_t>(kThreads));
    seen[s.thread_index] = true;
    if (s.name == "per_thread.root") {
      EXPECT_EQ(s.parent_id, 0u);
    } else {
      EXPECT_NE(s.parent_id, 0u);
      EXPECT_EQ(s.depth, 1u);
    }
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_TRUE(seen[t]);
}

TEST(Trace, RingOverflowDropsOldestAndCounts) {
  obs::Tracer tracer;
  obs::Tracer* previous = obs::install_tracer(&tracer);
  const std::size_t total = obs::kSpanRingCapacity + 100;
  for (std::size_t i = 0; i < total; ++i) {
    obs::ScopedSpan span("overflow");
  }
  obs::install_tracer(previous);
  EXPECT_EQ(tracer.snapshot().size(), obs::kSpanRingCapacity);
  EXPECT_EQ(tracer.dropped(), 100u);
}

TEST(Trace, SpanOpenedWithoutTracerStaysInert) {
  ASSERT_EQ(obs::tracer(), nullptr);
  obs::Tracer tracer;
  {
    obs::ScopedSpan orphan("orphan");  // opened with no tracer installed
    obs::install_tracer(&tracer);
  }  // closes after a tracer appeared; must not record
  obs::install_tracer(nullptr);
  EXPECT_TRUE(tracer.snapshot().empty());
}

// ------------------------------------------------------------- report --

TEST(Report, JsonRoundTripPreservesEverything) {
  obs::ObsSession session("roundtrip_test");
  PATCHDB_COUNTER_ADD("rt.counter", 41);
  PATCHDB_COUNTER_ADD("rt.counter", 1);
  PATCHDB_GAUGE_SET("rt.gauge", 0.125);
  PATCHDB_HISTOGRAM_OBSERVE("rt.hist", 3.0);
  {
    PATCHDB_TRACE_SPAN("rt.outer");
    PATCHDB_TRACE_SPAN("rt.inner");
  }
  const obs::RunReport report = session.report();
  EXPECT_EQ(report.name, "roundtrip_test");
  EXPECT_GE(report.wall_ms, 0.0);
  EXPECT_EQ(report.metrics.counter("rt.counter"), 42u);

  const obs::Json json = report.to_json();
  const obs::RunReport back = obs::RunReport::from_json(obs::Json::parse(json.dump(2)));
  EXPECT_EQ(back.name, report.name);
  EXPECT_EQ(back.spans_dropped, report.spans_dropped);
  EXPECT_EQ(back.metrics.counters, report.metrics.counters);
  EXPECT_EQ(back.metrics.gauges, report.metrics.gauges);
  ASSERT_EQ(back.spans.size(), report.spans.size());
  for (std::size_t i = 0; i < back.spans.size(); ++i) {
    EXPECT_EQ(back.spans[i].name, report.spans[i].name);
    EXPECT_EQ(back.spans[i].span_id, report.spans[i].span_id);
    EXPECT_EQ(back.spans[i].parent_id, report.spans[i].parent_id);
    EXPECT_EQ(back.spans[i].wall_us, report.spans[i].wall_us);
  }
  // Serializing the reconstruction reproduces the same JSON value.
  EXPECT_EQ(back.to_json(), json);
}

TEST(Report, RenderMentionsRecordedMetrics) {
  obs::ObsSession session("render_test");
  PATCHDB_COUNTER_ADD("render.counter", 7);
  PATCHDB_HISTOGRAM_OBSERVE("render.hist", 1.0);
  { PATCHDB_TRACE_SPAN("render.span"); }
  const std::string text = session.report().render();
  EXPECT_NE(text.find("render.counter"), std::string::npos);
  EXPECT_NE(text.find("render.hist"), std::string::npos);
  EXPECT_NE(text.find("render.span"), std::string::npos);
}

TEST(Report, SessionsNestAndRestore) {
  obs::ObsSession outer("outer_session");
  PATCHDB_COUNTER_ADD("nest.counter", 1);
  {
    obs::ObsSession inner("inner_session");
    PATCHDB_COUNTER_ADD("nest.counter", 10);
    EXPECT_EQ(inner.report().metrics.counter("nest.counter"), 10u);
  }
  PATCHDB_COUNTER_ADD("nest.counter", 1);
  // The inner session's 10 never leaked into the outer registry.
  EXPECT_EQ(outer.report().metrics.counter("nest.counter"), 2u);
}

TEST(Report, PoolMetricsFlowThroughSession) {
  obs::ObsSession session("pool_test");  // attaches the default pool
  util::ThreadPool& pool = util::default_pool();
  pool.parallel_for(64, [](std::size_t, std::size_t) {});
  pool.wait_idle();

  const obs::RunReport report = session.report();
  EXPECT_GT(report.metrics.counter("pool.tasks"), 0u);
  const obs::HistogramSnapshot* h = report.metrics.histogram("pool.task_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count, 0u);
  EXPECT_DOUBLE_EQ(report.metrics.gauge("pool.threads"),
                   static_cast<double>(pool.size()));
}

// ------------------------------------------------- disabled fast path --

TEST(DisabledPath, InstrumentationAllocatesNothing) {
  ASSERT_EQ(obs::registry(), nullptr);
  ASSERT_EQ(obs::tracer(), nullptr);
  // Warm the thread-local state outside the measured window.
  PATCHDB_COUNTER_ADD("warmup", 1);
  { PATCHDB_TRACE_SPAN("warmup"); }

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    PATCHDB_COUNTER_ADD("disabled.counter", 1);
    PATCHDB_GAUGE_SET("disabled.gauge", 1.0);
    PATCHDB_HISTOGRAM_OBSERVE("disabled.hist", 1.0);
    PATCHDB_TRACE_SPAN("disabled.span");
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
#if defined(PATCHDB_TEST_COUNTS_ALLOCS)
  EXPECT_EQ(after, before);
#else
  (void)before;
  (void)after;
#endif
}

}  // namespace
}  // namespace patchdb
