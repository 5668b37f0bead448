#include "obs/obs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/export.h"
#include "obs/progress.h"

namespace patchdb::obs {

bool obs_env_disabled() noexcept {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup
  const char* value = std::getenv("PATCHDB_OBS_DISABLED");
  return value != nullptr && *value != '\0' && std::strcmp(value, "0") != 0;
}

void attach_pool(util::ThreadPool& pool) {
  util::ThreadPool::Observer observer;
  observer.queue_depth = [](std::size_t depth) {
    const double d = static_cast<double>(depth);
    gauge_set("pool.queue_depth", d);
    histogram_observe("pool.queue_depth.dist", d, BucketLayout::count());
  };
  observer.task_ms = [](double ms) {
    counter_add("pool.tasks", 1);
    counter_add("pool.busy_us", static_cast<std::uint64_t>(ms * 1000.0));
    histogram_observe("pool.task_ms", ms, BucketLayout::time_ms());
  };
  gauge_set("pool.threads", static_cast<double>(pool.size()));
  pool.set_observer(std::move(observer));
}

void detach_pool(util::ThreadPool& pool) { pool.set_observer({}); }

ArtifactRequest artifact_request(const util::Flags& flags) {
  ArtifactRequest request;
  request.metrics_out = flags.value("--metrics-out", std::string());
  request.trace_out = flags.value("--trace-out", std::string());
  request.sample_ms = flags.value("--sample-ms", request.sample_ms);
  request.progress = flags.has("--progress");
  return request;
}

ObsSession::ObsSession(std::string name, ArtifactRequest request)
    : name_(std::move(name)),
      request_(std::move(request)),
      installed_(!obs_env_disabled()),
      start_(std::chrono::steady_clock::now()) {
  if (request_.progress) set_progress_interval_ms(1000);
  if (!installed_) return;  // inert session: all sinks stay as they were
  previous_registry_ = install_registry(&registry_);
  previous_tracer_ = install_tracer(&tracer_);
  attach_pool(util::default_pool());
  if (!request_.metrics_out.empty() || !request_.trace_out.empty()) {
    // Clamp before the signed cast: a size_t like 2^63 would wrap to a
    // negative interval. One hour is already far beyond any useful
    // sampling period.
    constexpr std::size_t kMaxSampleMs = 3'600'000;
    ResourceSampler::Options options;
    options.interval = std::chrono::milliseconds(
        static_cast<long long>(std::min(request_.sample_ms, kMaxSampleMs)));
    sampler_ = std::make_unique<ResourceSampler>(options);
    sampler_->start();
  }
}

ObsSession::~ObsSession() {
  if (!installed_) return;
  // The sampler reads the installed tracer: stop it before the sinks go.
  sampler_.reset();
  detach_pool(util::default_pool());
  install_tracer(previous_tracer_);
  install_registry(previous_registry_);
}

double ObsSession::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

RunReport ObsSession::report() {
  RunReport report;
  report.name = name_;
  report.wall_ms = elapsed_ms();
  if (!installed_) return report;
  if (sampler_) sampler_->stop();
  report.spans_dropped = tracer_.dropped();
  report.metrics = registry_.snapshot();
  report.spans = tracer_.snapshot();

  // The pool's actual shape. A single-threaded pathology then shows up
  // as workers_active = 1 with one hot histogram lane, instead of
  // silently producing a serial measurement. Computed here, not in
  // the registry, so a second report() does not count it twice.
  MetricsRegistry shape;
  std::size_t active = 0;
  for (const double ms : util::default_pool().worker_busy_ms()) {
    shape.histogram("pool.worker_busy_ms").observe(ms);
    if (ms > 0.0) ++active;
  }
  report.metrics.gauges["pool.workers_active"] = static_cast<double>(active);
  for (HistogramSnapshot& h : shape.snapshot().histograms) {
    report.metrics.histograms.push_back(std::move(h));
  }

  // Derived gauge: fraction of the session's wall x threads the pool
  // spent running tasks.
  const double busy_us =
      static_cast<double>(report.metrics.counter("pool.busy_us"));
  const double threads = report.metrics.gauge("pool.threads");
  if (busy_us > 0.0 && threads > 0.0 && report.wall_ms > 0.0) {
    const double utilization = busy_us / (report.wall_ms * 1000.0 * threads);
    report.metrics.gauges["pool.utilization"] = utilization;
  }
  if (sampler_) {
    report.resource_timeline = sampler_->samples();
    // Samples are stamped relative to the sampler's own start; shift
    // them onto the tracer epoch so the exporter's counter tracks line
    // up with the span flame graph.
    const std::int64_t offset =
        std::chrono::duration_cast<std::chrono::microseconds>(
            sampler_->start_time() - tracer_.epoch())
            .count();
    for (ResourceSample& s : report.resource_timeline) s.t_us += offset;
  }
  return report;
}

void ObsSession::write_artifacts(const RunReport& report) const {
  if (!request_.metrics_out.empty()) {
    write_report_file(report, request_.metrics_out);
    std::printf("metrics written to %s\n", request_.metrics_out.c_str());
  }
  if (!request_.trace_out.empty()) {
    write_trace_file(report, request_.trace_out);
    std::printf("trace written to %s (load in Perfetto / chrome://tracing)\n",
                request_.trace_out.c_str());
  }
}

}  // namespace patchdb::obs
