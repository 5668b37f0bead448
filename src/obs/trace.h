// Scoped-span tracer. Instrumented code opens RAII spans —
//
//   PATCHDB_TRACE_SPAN("nearest_link.round");
//
// — which record wall and thread-CPU time into a per-thread ring buffer
// when a Tracer is installed, and cost one relaxed atomic load when none
// is. Spans nest: each completed record carries its parent's id and its
// depth, so a RunReport can rebuild the call tree. Rings hold
// kSpanRingCapacity spans; when a thread overflows its ring the oldest
// spans are dropped and counted — both on the tracer (dropped()) and
// live on the installed registry as the `obs.spans_dropped` counter —
// never reallocated: tracing the augmentation loop must not perturb it.
// A thread that exits leaves its ring, and the spans in it, to the next
// thread that opens a span, so rings grow with the threads alive at
// once, not with every thread a server ever started.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace patchdb::obs {

/// Spans each thread's ring holds.
inline constexpr std::size_t kSpanRingCapacity = 4096;

/// One completed span. Times are microseconds; start is relative to the
/// owning Tracer's epoch so runs serialize small, diffable numbers.
struct SpanRecord {
  std::string name;
  std::uint32_t thread_index = 0;  // per-tracer dense thread id
  std::uint64_t span_id = 0;       // unique per tracer, != 0
  std::uint64_t parent_id = 0;     // 0 = root span of its thread
  std::uint32_t depth = 0;
  std::int64_t start_us = 0;
  std::int64_t wall_us = 0;
  std::int64_t cpu_us = 0;  // thread CPU time (0 where unsupported)
};

class Tracer {
 public:
  /// Opaque per-thread span ring; public only so the thread-local cache
  /// in trace.cpp can hold a reference.
  struct ThreadRing;

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// All completed spans across threads, ordered by (thread, start).
  /// Concurrent span completion during a snapshot is safe; the snapshot
  /// sees a consistent prefix of each ring.
  std::vector<SpanRecord> snapshot() const;

  /// Spans dropped to ring overflow, across all threads.
  std::uint64_t dropped() const noexcept;

  std::chrono::steady_clock::time_point epoch() const noexcept { return epoch_; }

 private:
  friend class ScopedSpan;

  /// The calling thread's ring within this tracer (registered on first
  /// use; the shared_ptr in rings_ keeps data alive past thread exit,
  /// until a later thread takes the ring over).
  std::shared_ptr<ThreadRing> local_ring();
  std::uint64_t next_span_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex rings_mutex_;
  std::vector<std::shared_ptr<ThreadRing>> rings_;
  std::uint32_t next_thread_index_ = 0;  // guarded by rings_mutex_
  std::uint64_t generation_ = 0;  // distinguishes re-installed tracers
};

/// Install/read the process-global tracer (same nesting contract as
/// install_registry). Spans opened while no tracer is installed are
/// no-ops even if a tracer appears before they close.
Tracer* install_tracer(Tracer* tracer) noexcept;
Tracer* tracer() noexcept;

class ScopedSpan {
 public:
  /// `name` must outlive the span: a literal or a static table entry.
  /// The span keeps the pointer until it closes, and a std::string does
  /// not convert, so a name built in a temporary does not compile.
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;  // false = no tracer installed; destructor no-ops
  std::uint64_t generation_ = 0;  // tracer generation captured at open
  const char* name_ = nullptr;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::uint32_t depth_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::chrono::steady_clock::time_point wall_start_;
  std::int64_t cpu_start_us_ = 0;
};

}  // namespace patchdb::obs

#define PATCHDB_TRACE_SPAN_CONCAT2(a, b) a##b
#define PATCHDB_TRACE_SPAN_CONCAT(a, b) PATCHDB_TRACE_SPAN_CONCAT2(a, b)
#define PATCHDB_TRACE_SPAN(name)                 \
  ::patchdb::obs::ScopedSpan PATCHDB_TRACE_SPAN_CONCAT( \
      patchdb_obs_span_, __COUNTER__)(name)
