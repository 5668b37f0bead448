#include "obs/sampler.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

#if defined(__linux__)
#include <time.h>  // NOLINT(modernize-deprecated-headers): clock_gettime
#endif

namespace patchdb::obs {

namespace {

std::int64_t process_cpu_us() noexcept {
#if defined(__linux__)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<std::int64_t>(ts.tv_nsec) / 1'000;
#else
  return 0;
#endif
}

/// VmRSS / VmHWM out of /proc/self/status, in bytes. Both zero when the
/// file is unreadable (non-Linux, restricted sandboxes) — the timeline
/// still carries CPU and pool gauges there.
void read_memory(std::uint64_t& rss_bytes, std::uint64_t& peak_bytes) noexcept {
  rss_bytes = 0;
  peak_bytes = 0;
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "re");
  if (f == nullptr) return;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    std::uint64_t kb = 0;
    if (std::sscanf(line, "VmRSS: %lu kB", &kb) == 1) {  // NOLINT(cert-err34-c)
      rss_bytes = kb * 1024;
    } else if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) {  // NOLINT(cert-err34-c)
      peak_bytes = kb * 1024;
    }
    if (rss_bytes != 0 && peak_bytes != 0) break;
  }
  std::fclose(f);
#endif
}

}  // namespace

ResourceSampler::ResourceSampler(Options options) : options_(options) {
  if (options_.interval <= std::chrono::milliseconds(0)) {
    options_.interval = std::chrono::milliseconds(1);
  }
  if (options_.max_samples == 0) options_.max_samples = 1;
  samples_.reserve(options_.max_samples);
}

ResourceSampler::~ResourceSampler() { stop(); }

ResourceSample ResourceSampler::sample_now(util::ThreadPool* pool) {
  ResourceSample s;
  read_memory(s.rss_bytes, s.peak_rss_bytes);
  s.cpu_us = process_cpu_us();
  util::ThreadPool& p = pool != nullptr ? *pool : util::default_pool();
  s.pool_threads = static_cast<std::uint32_t>(p.size());
  s.pool_pending = static_cast<std::uint32_t>(p.pending());
  s.pool_running = static_cast<std::uint32_t>(p.running());
  if (Tracer* t = tracer()) s.spans_dropped = t->dropped();
  return s;
}

void ResourceSampler::record_locked(std::chrono::steady_clock::time_point now) {
  ResourceSample s = sample_now();
  s.t_us =
      std::chrono::duration_cast<std::chrono::microseconds>(now - start_).count();
  // The latest sample, live in the installed registry.
  gauge_set("proc.rss_bytes", static_cast<double>(s.rss_bytes));
  gauge_set("proc.peak_rss_bytes", static_cast<double>(s.peak_rss_bytes));
  gauge_set("proc.cpu_us", static_cast<double>(s.cpu_us));
  if (samples_.size() < options_.max_samples) {
    samples_.push_back(s);
  } else {
    ++overflow_;
  }
}

void ResourceSampler::start() {
  std::unique_lock lock(mutex_);
  if (running_) return;
  running_ = true;
  stop_requested_ = false;
  samples_.clear();
  overflow_ = 0;
  start_ = std::chrono::steady_clock::now();
  record_locked(start_);
  thread_ = std::thread([this] { run_loop(); });
}

void ResourceSampler::stop() {
  {
    std::unique_lock lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::unique_lock lock(mutex_);
  running_ = false;
  // One closing sample so short timelines still show their end state.
  record_locked(std::chrono::steady_clock::now());
}

bool ResourceSampler::running() const {
  std::unique_lock lock(mutex_);
  return running_;
}

std::vector<ResourceSample> ResourceSampler::samples() const {
  std::unique_lock lock(mutex_);
  return samples_;
}

std::size_t ResourceSampler::overflow() const {
  std::unique_lock lock(mutex_);
  return overflow_;
}

std::chrono::steady_clock::time_point ResourceSampler::start_time() const {
  std::unique_lock lock(mutex_);
  return start_;
}

void ResourceSampler::run_loop() {
  std::unique_lock lock(mutex_);
  while (!stop_requested_) {
    // wait_for under the sampler's own lock: record_locked never blocks
    // on anything that waits for this thread, so no deadlock is
    // possible, and stop() wakes the wait immediately.
    if (cv_.wait_for(lock, options_.interval, [this] { return stop_requested_; })) {
      return;
    }
    record_locked(std::chrono::steady_clock::now());
  }
}

}  // namespace patchdb::obs
