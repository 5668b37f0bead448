// Fixed-size thread pool with a blocking parallel_for. The nearest link
// search computes an M x N weighted distance matrix (Section III-B);
// at paper scale (4076 x 200K) that is the dominant cost, so the matrix
// is computed in row blocks across the pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace patchdb::util {

class ThreadPool {
 public:
  /// Metric hooks, invoked outside the pool lock. Both optional. The
  /// observability layer (src/obs) installs these; the pool itself has
  /// no obs dependency so the util library stays at the bottom of the
  /// dependency order.
  struct Observer {
    /// Queue depth after every enqueue and dequeue.
    std::function<void(std::size_t depth)> queue_depth;
    /// Wall-clock latency of each completed task, in milliseconds.
    std::function<void(double ms)> task_ms;
  };

  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Tasks enqueued but not yet picked up by a worker.
  std::size_t pending() const;

  /// Tasks enqueued and not yet finished (pending + running).
  std::size_t in_flight() const;

  /// Tasks currently executing on a worker (in_flight - pending, read
  /// under one lock so the two can't tear).
  std::size_t running() const;

  /// Cumulative wall time each worker has spent executing tasks, in
  /// milliseconds, indexed by worker. Always maintained (two clock
  /// reads per task); the per-worker histogram every obs::ObsSession
  /// report carries is derived from this, so a single-threaded pool
  /// pathology shows up as one busy worker and N-1 zeros in the artifact.
  std::vector<double> worker_busy_ms() const;

  /// Install (or, with a default-constructed Observer, clear) the metric
  /// hooks. Thread-safe; tasks already running may still report to the
  /// previous observer.
  void set_observer(Observer observer);

  /// Enqueue a task; runs on some worker eventually. A task that throws
  /// does not take the worker (or the process) down: the exception is
  /// caught, counted in task_errors(), and the first one is stashed for
  /// take_task_error(), so wait_idle() still completes. The queue is
  /// unbounded: callers that must shed load count their own work (the
  /// serve acceptor counts open connections).
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Submitted tasks that terminated with an exception. parallel_for
  /// reports its errors by rethrowing on the caller and never counts
  /// here.
  std::size_t task_errors() const;

  /// The first exception thrown by a submit() task since the last call;
  /// clears the slot. Null when no task has thrown.
  std::exception_ptr take_task_error();

  /// Partition [0, n) into contiguous chunks and run `body(begin, end)`
  /// on the pool; blocks until all chunks are done. Exceptions thrown by
  /// the body are rethrown (first one wins) on the calling thread.
  /// Nested calls from a worker thread run the body inline (serially):
  /// blocking a worker on wait_idle() would deadlock the pool, and the
  /// outer parallelism already saturates it.
  void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::vector<double> worker_busy_ms_;  // guarded by mutex_
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::size_t task_errors_ = 0;
  std::exception_ptr task_error_;
  /// Shared so submit/worker can invoke hooks after dropping the lock
  /// even while set_observer swaps in a replacement.
  std::shared_ptr<const Observer> observer_;
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
