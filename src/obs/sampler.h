// Background resource sampler: a lightweight thread that takes periodic
// snapshots of process health while a pipeline runs — resident set size
// and peak RSS (read from /proc/self/status; zero on platforms without
// procfs), cumulative process CPU time, thread-pool size/backlog, and
// the tracer's span-drop count. The sample buffer is fixed-capacity and
// preallocated: once full the sampler keeps ticking (the live gauges
// stay fresh) but stops recording, counting the overflow instead of
// reallocating under a running pipeline. The collected timeline rides
// along in a patchdb.obs.v2 RunReport (`resource_timeline`) and feeds
// the Chrome trace exporter's counter tracks, so a Perfetto view of a
// run shows memory and queue depth under the span flame graph.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace patchdb::util {
class ThreadPool;
}  // namespace patchdb::util

namespace patchdb::obs {

/// One point on the resource timeline. `t_us` is relative to the
/// sampler's start; ObsSession re-anchors it to the tracer epoch when
/// assembling a report so counter tracks line up with the spans.
struct ResourceSample {
  std::int64_t t_us = 0;
  std::uint64_t rss_bytes = 0;       // current resident set (VmRSS)
  std::uint64_t peak_rss_bytes = 0;  // high-water mark (VmHWM)
  std::int64_t cpu_us = 0;           // cumulative process CPU time
  std::uint32_t pool_threads = 0;
  std::uint32_t pool_pending = 0;    // queued, not yet picked up
  std::uint32_t pool_running = 0;    // picked up, not yet finished
  std::uint64_t spans_dropped = 0;   // Tracer::dropped() at sample time
};

class ResourceSampler {
 public:
  struct Options {
    std::chrono::milliseconds interval{100};
    /// Hard cap on recorded samples; ticks past it count as overflow.
    std::size_t max_samples = 4096;
  };

  ResourceSampler() : ResourceSampler(Options{}) {}
  explicit ResourceSampler(Options options);
  ~ResourceSampler();  // stops and joins
  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  /// Take an immediate t=0 sample and launch the background thread.
  /// No-op when already running.
  void start();
  /// Take one final sample, stop the thread, and join it. Idempotent.
  void stop();
  bool running() const;

  /// Samples recorded so far (safe to call while running).
  std::vector<ResourceSample> samples() const;
  /// Ticks skipped because the buffer hit max_samples.
  std::size_t overflow() const;
  std::chrono::steady_clock::time_point start_time() const;

  /// One sample of the current process state, usable without a running
  /// sampler (t_us is 0). `pool` is the pool whose gauges it reads;
  /// nullptr = util::default_pool().
  static ResourceSample sample_now(util::ThreadPool* pool = nullptr);

 private:
  void run_loop();
  void record_locked(std::chrono::steady_clock::time_point now);

  Options options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_requested_ = false;
  std::vector<ResourceSample> samples_;
  std::size_t overflow_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::thread thread_;
};

}  // namespace patchdb::obs
