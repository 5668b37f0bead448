// One-stop observability session, the one every binary runs. Constructing
// an ObsSession installs a fresh metrics registry and tracer as the
// process-global sinks and wires the default thread pool's queue-depth
// gauge and task-latency histogram; destroying it restores whatever was
// installed before, so sessions nest and tests can't leak state. The
// ArtifactRequest a binary's obs flags make (artifact_request) adds the
// rest: the --progress heartbeat, a ResourceSampler while an artifact is
// requested, and the artifact files themselves. report() captures
// everything recorded so far as a RunReport.
//
//   {
//     obs::ObsSession session("table2_augmentation", request);
//     run_pipeline();
//     session.write_artifacts(session.report());
//   }  // sinks restored
//
// Setting the PATCHDB_OBS_DISABLED environment variable (to anything
// but "0" / "") makes sessions inert: no sinks are installed and no
// sampler runs, so every PATCHDB_TRACE_SPAN / counter_add in the
// pipeline takes its one-load disabled fast path. The obs-overhead CI
// check runs the same binary in both modes and diffs the wall time.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "util/flags.h"
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

/// What a binary's obs flags ask for.
struct ArtifactRequest {
  std::string metrics_out;     // --metrics-out FILE: the RunReport JSON
  std::string trace_out;       // --trace-out FILE: a Chrome trace
  std::size_t sample_ms = 50;  // --sample-ms N: the sampler's period
  bool progress = false;       // --progress: a heartbeat every second
};

/// The obs value flags, for util::Flags::accept; the obs switch is
/// --progress. Every binary that writes artifacts takes all four.
inline const std::vector<std::string> kArtifactValueFlags = {
    "--metrics-out", "--trace-out", "--sample-ms"};

/// The request the obs flags of an accept()ed argv make.
ArtifactRequest artifact_request(const util::Flags& flags);

class ObsSession {
 public:
  explicit ObsSession(std::string name, ArtifactRequest request = {});
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

  /// Stop the sampler (idempotent) and snapshot metrics + spans now.
  /// The report also carries what the registry does not: the default
  /// pool's shape (gauge `pool.workers_active`, the workers that have
  /// run a task, and histogram `pool.worker_busy_ms`, each worker's
  /// cumulative busy time), `pool.utilization` (busy time / (wall x
  /// threads)) and the sampler's timeline, re-anchored onto the tracer
  /// epoch. Safe to call more than once.
  RunReport report();

  /// Write each requested artifact, saying so on stdout.
  void write_artifacts(const RunReport& report) const;

 private:
  std::string name_;
  ArtifactRequest request_;
  bool installed_ = false;
  std::chrono::steady_clock::time_point start_;
  MetricsRegistry registry_;
  Tracer tracer_;
  MetricsRegistry* previous_registry_ = nullptr;
  Tracer* previous_tracer_ = nullptr;
  std::unique_ptr<ResourceSampler> sampler_;  // only while an artifact is requested
};

}  // namespace patchdb::obs
