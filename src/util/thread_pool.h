// Fixed-size thread pool whose one way in is a blocking parallel_for.
// The nearest link search computes an M x N weighted distance matrix
// (Section III-B); at paper scale (4076 x 200K) that is the dominant
// cost, so the matrix is computed in row blocks across the pool. Work
// that holds a thread for long (a patchdbd connection) runs on its own
// thread, not here. Several threads may call parallel_for at once (two
// concurrent dataset loads, say): their chunks share the workers, and
// each call waits for its own chunks only, never for another's.
//
// The pool has no metric hooks and no obs dependency, so the util
// library stays at the bottom of the dependency order. What obs reports
// about it is read from the outside: each worker's busy time
// (worker_busy_ms), and the pending and running counts the resource
// sampler polls.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace patchdb::util {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Chunks enqueued but not yet picked up by a worker.
  std::size_t pending() const;

  /// Chunks currently executing on a worker.
  std::size_t running() const;

  /// Cumulative wall time each worker has spent executing chunks, in
  /// milliseconds, indexed by worker, since the pool was made. Always
  /// maintained (two clock reads per chunk). An obs::ObsSession reads it
  /// when it starts and again in report(), and reports the difference,
  /// so a single-threaded pool pathology shows up as one busy worker and
  /// N-1 zeros in the artifact.
  std::vector<double> worker_busy_ms() const;

  /// Partition [0, n) into contiguous chunks and run `body(begin, end)`
  /// on the pool; blocks until this call's chunks are done. Concurrent
  /// calls share the workers but not their waits: each returns once its
  /// own chunks have run, whatever else the pool is doing. Exceptions
  /// thrown by the body are rethrown (first one wins) on the calling
  /// thread, and the call's chunks not yet started are skipped. Nested
  /// calls from a worker thread run the body inline (serially): a worker
  /// waiting on its own chunks could deadlock the pool, and the outer
  /// parallelism already saturates it.
  void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& body);

 private:
  struct Call;  // one parallel_for's body, unfinished chunks and error

  /// Chunk [begin, end) of a call.
  struct Chunk {
    Call* call;
    std::size_t begin;
    std::size_t end;
  };

  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::vector<double> worker_busy_ms_;  // guarded by mutex_
  std::queue<Chunk> chunks_;
  mutable std::mutex mutex_;
  std::condition_variable chunk_ready_;
  std::size_t running_ = 0;  // chunks picked up and not yet finished
  bool stopping_ = false;
};

/// Process-wide default pool. Sized, in priority order, from
/// configure_default_pool(), the PATCHDB_THREADS environment variable,
/// or hardware_concurrency. PATCHDB_THREADS parsing is strict: anything
/// other than a complete decimal integer in [1, 1024] aborts the
/// process with a diagnostic on first pool use — a typo'd override must
/// not silently fall back to a serial (or default) pool and invalidate
/// a benchmark run.
ThreadPool& default_pool();

/// Request a worker count for default_pool() before its first use
/// (e.g. from `patchdb build --threads N`). Takes precedence over
/// PATCHDB_THREADS. Throws std::invalid_argument for threads outside
/// [1, 1024] and std::logic_error when the default pool was already
/// constructed with a different size — a late override would silently
/// not apply, which is exactly the single-threaded-bench pathology this
/// knob exists to prevent.
void configure_default_pool(std::size_t threads);

/// The worker count default_pool() has, or would be created with
/// (override > PATCHDB_THREADS > hardware_concurrency).
std::size_t default_pool_threads();

}  // namespace patchdb::util
