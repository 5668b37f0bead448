// One-stop observability session. Constructing an ObsSession installs a
// fresh metrics registry and tracer as the process-global sinks and
// (by default) wires the default thread pool's queue-depth gauge and
// task-latency histogram; destroying it restores whatever was installed
// before, so sessions nest and tests can't leak state. report() captures
// everything recorded so far as a RunReport.
//
//   {
//     obs::ObsSession session("table2_augmentation");
//     run_pipeline();
//     obs::write_report_file(session.report(), "m.json");
//   }  // sinks restored
//
// Setting the PATCHDB_OBS_DISABLED environment variable (to anything
// but "0" / "") makes sessions inert: no sinks are installed, so every
// PATCHDB_TRACE_SPAN / counter_add in the pipeline takes its one-load
// disabled fast path. The obs-overhead CI check runs the same binary
// in both modes and diffs the wall time.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace patchdb::obs {

/// True when the PATCHDB_OBS_DISABLED environment variable is set to a
/// non-empty value other than "0". Checked once per ObsSession
/// construction (not cached), so tests can flip it.
bool obs_env_disabled() noexcept;

/// Wire `pool`'s observer to the *globally installed* registry: gauge
/// `pool.queue_depth`, histogram `pool.queue_depth.dist`, histogram
/// `pool.task_ms`, counters `pool.tasks` / `pool.busy_us`, gauge
/// `pool.threads`. Pass detach_pool to undo.
void attach_pool(util::ThreadPool& pool);
void detach_pool(util::ThreadPool& pool);

class ObsSession {
 public:
  struct Options {
    /// Attach util::default_pool() for the session's lifetime.
    bool attach_default_pool = true;
  };

  explicit ObsSession(std::string name) : ObsSession(std::move(name), Options{}) {}
  ObsSession(std::string name, Options options);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  MetricsRegistry& registry() noexcept { return registry_; }
  Tracer& tracer() noexcept { return tracer_; }
  const std::string& name() const noexcept { return name_; }

  double elapsed_ms() const;

  /// False when PATCHDB_OBS_DISABLED suppressed sink installation; the
  /// session then records nothing and report() is empty (name + wall).
  bool installed() const noexcept { return installed_; }

  /// Borrow a sampler whose timeline report() should fold in. The
  /// session does not own or start/stop it; callers start() it after
  /// attaching and stop() it before report(). Sample timestamps are
  /// re-anchored from the sampler's start to the tracer epoch so they
  /// share the spans' timebase.
  void attach_sampler(ResourceSampler* sampler) noexcept {
    sampler_ = sampler;
  }

  /// Snapshot metrics + spans now. Also derives `pool.utilization`
  /// (busy time / (wall x threads)) when the pool was attached, and
  /// embeds the attached sampler's timeline (schema stays v2 either way).
  RunReport report() const;

 private:
  std::string name_;
  Options options_;
  bool installed_ = false;
  std::chrono::steady_clock::time_point start_;
  MetricsRegistry registry_;
  Tracer tracer_;
  MetricsRegistry* previous_registry_ = nullptr;
  Tracer* previous_tracer_ = nullptr;
  ResourceSampler* sampler_ = nullptr;
};

/// What a binary's observability flags asked for; each tool and bench
/// parses its own argv into one and runs an ArtifactSession on it.
struct ArtifactRequest {
  std::string metrics_out;  // --metrics-out: the RunReport JSON
  std::string trace_out;    // --trace-out: a Chrome trace
  /// --sample-ms: the ResourceSampler's period, clamped to one hour.
  /// nullopt for a binary that takes no --sample-ms and samples nothing.
  std::optional<std::size_t> sample_ms = 50;
  bool progress = false;        // --progress: a heartbeat every second
  std::size_t progress_ms = 0;  // --progress-ms: its period; 0 = unset
};

/// An ObsSession plus what a request asks of it: the progress period,
/// and a ResourceSampler for this object's lifetime only while an
/// artifact is requested (the obs-overhead check requests none).
class ArtifactSession {
 public:
  ArtifactSession(std::string name, ArtifactRequest request);

  ObsSession& session() noexcept { return session_; }

  /// Stop the sampler (idempotent) and snapshot the session.
  RunReport report();

  /// Write each requested artifact, saying so on stdout.
  void write_artifacts(const RunReport& report) const;

 private:
  ArtifactRequest request_;
  ObsSession session_;
  // After session_, so it stops before the session restores the sinks.
  std::unique_ptr<ResourceSampler> sampler_;
};

}  // namespace patchdb::obs
