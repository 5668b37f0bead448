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

ObsSession::ObsSession(std::string name, Options options)
    : name_(std::move(name)),
      options_(options),
      installed_(!obs_env_disabled()),
      start_(std::chrono::steady_clock::now()) {
  if (!installed_) return;  // inert session: all sinks stay as they were
  previous_registry_ = install_registry(&registry_);
  previous_tracer_ = install_tracer(&tracer_);
  if (options_.attach_default_pool) attach_pool(util::default_pool());
}

ObsSession::~ObsSession() {
  if (!installed_) return;
  if (options_.attach_default_pool) detach_pool(util::default_pool());
  install_tracer(previous_tracer_);
  install_registry(previous_registry_);
}

double ObsSession::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

RunReport ObsSession::report() const {
  RunReport report;
  report.name = name_;
  report.wall_ms = elapsed_ms();
  report.spans_dropped = tracer_.dropped();
  report.metrics = registry_.snapshot();
  report.spans = tracer_.snapshot();
  // Derived gauge: fraction of the session's wall x threads the pool
  // spent running tasks.
  const double busy_us =
      static_cast<double>(report.metrics.counter("pool.busy_us"));
  const double threads = report.metrics.gauge("pool.threads");
  if (busy_us > 0.0 && threads > 0.0 && report.wall_ms > 0.0) {
    const double utilization = busy_us / (report.wall_ms * 1000.0 * threads);
    report.metrics.gauges["pool.utilization"] = utilization;
  }
  if (sampler_ != nullptr) {
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

ArtifactSession::ArtifactSession(std::string name, ArtifactRequest request)
    : request_(std::move(request)), session_(std::move(name)) {
  if (request_.progress) set_progress_interval_ms(1000);
  if (request_.progress_ms > 0) set_progress_interval_ms(request_.progress_ms);
  const bool want_artifacts =
      !request_.metrics_out.empty() || !request_.trace_out.empty();
  if (session_.installed() && want_artifacts && request_.sample_ms) {
    // Clamp before the signed cast: a size_t like 2^63 would wrap to a
    // negative interval. One hour is already far beyond any useful
    // sampling period.
    constexpr std::size_t kMaxSampleMs = 3'600'000;
    ResourceSampler::Options options;
    options.interval = std::chrono::milliseconds(
        static_cast<long long>(std::min(*request_.sample_ms, kMaxSampleMs)));
    sampler_ = std::make_unique<ResourceSampler>(options);
    session_.attach_sampler(sampler_.get());
    sampler_->start();
  }
}

RunReport ArtifactSession::report() {
  if (sampler_) sampler_->stop();
  return session_.report();
}

void ArtifactSession::write_artifacts(const RunReport& report) const {
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
