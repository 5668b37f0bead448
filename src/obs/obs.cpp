#include "obs/obs.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <utility>

#include "obs/export.h"
#include "obs/progress.h"
#include "util/thread_pool.h"

namespace patchdb::obs {

bool obs_env_disabled() noexcept {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup
  const char* value = std::getenv("PATCHDB_OBS_DISABLED");
  return value != nullptr && *value != '\0' && std::strcmp(value, "0") != 0;
}

ArtifactRequest artifact_request(const util::Flags& flags) {
  ArtifactRequest request;
  request.metrics_out = flags.value("--metrics-out", std::string());
  request.trace_out = flags.value("--trace-out", std::string());
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
  pool_busy_at_start_ = util::default_pool().worker_busy_ms();
  if (!request_.metrics_out.empty() || !request_.trace_out.empty()) {
    ResourceSampler::Options options;
    options.interval = std::chrono::milliseconds(50);
    sampler_ = std::make_unique<ResourceSampler>(options);
    sampler_->start();
  }
}

ObsSession::~ObsSession() {
  if (!installed_) return;
  // The sampler reads the installed tracer: stop it before the sinks go.
  sampler_.reset();
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

  // The pool's shape over this session. A single-threaded pathology
  // then shows up as workers_active = 1 with one hot histogram lane,
  // instead of silently producing a serial measurement. Computed here,
  // not in the registry, so a second report() does not count it twice.
  const util::ThreadPool& pool = util::default_pool();
  const std::vector<double> busy_now = pool.worker_busy_ms();
  Histogram busy;
  double busy_ms = 0.0;
  std::size_t active = 0;
  for (std::size_t w = 0; w < busy_now.size(); ++w) {
    const double ms = busy_now[w] - pool_busy_at_start_[w];
    busy.observe(ms);
    busy_ms += ms;
    if (ms > 0.0) ++active;
  }
  const double threads = static_cast<double>(pool.size());
  report.metrics.gauges["pool.threads"] = threads;
  report.metrics.gauges["pool.workers_active"] = static_cast<double>(active);
  report.metrics.histograms.push_back(busy.snapshot("pool.worker_busy_ms"));
  if (busy_ms > 0.0 && report.wall_ms > 0.0) {
    report.metrics.gauges["pool.utilization"] =
        busy_ms / (report.wall_ms * threads);
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

bool ObsSession::write_artifacts(const RunReport& report) const {
  try {
    if (!request_.metrics_out.empty()) {
      write_report_file(report, request_.metrics_out);
      std::printf("metrics written to %s\n", request_.metrics_out.c_str());
    }
    if (!request_.trace_out.empty()) {
      write_trace_file(report, request_.trace_out);
      std::printf("trace written to %s (load in Perfetto / chrome://tracing)\n",
                  request_.trace_out.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name_.c_str(), e.what());
    return false;
  }
  return true;
}

}  // namespace patchdb::obs
