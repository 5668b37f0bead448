#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>

#include "util/strings.h"

namespace patchdb::util {

namespace {
// True while the current thread is executing a pool chunk; used to run
// nested parallel_for bodies inline instead of deadlocking the pool.
thread_local bool t_on_pool_worker = false;

constexpr std::size_t kMaxDefaultPoolThreads = 1024;

// Pre-creation override for default_pool() (configure_default_pool).
std::mutex g_default_pool_mutex;
std::size_t g_default_pool_override = 0;  // 0 = no override
bool g_default_pool_created = false;

/// Strict parse of PATCHDB_THREADS: a complete decimal integer in
/// [1, 1024]. Anything else (letters, trailing junk, 0, negatives,
/// overflow) is a hard configuration error: exit 2 with a message
/// rather than silently benching on the wrong pool size.
std::size_t threads_from_env() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup
  const char* raw = std::getenv("PATCHDB_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  std::size_t value = 0;
  if (!parse_size(raw, value) || value < 1 || value > kMaxDefaultPoolThreads) {
    std::fprintf(stderr,
                 "patchdb: PATCHDB_THREADS expects an integer in [1, %zu], "
                 "got \"%s\"\n",
                 kMaxDefaultPoolThreads, raw);
    std::exit(2);
  }
  return value;
}

/// Resolution order: configure_default_pool > PATCHDB_THREADS >
/// hardware_concurrency. Caller holds g_default_pool_mutex.
std::size_t resolve_default_threads_locked() {
  if (g_default_pool_override > 0) return g_default_pool_override;
  const std::size_t env = threads_from_env();
  if (env > 0) return env;
  return std::max(1u, std::thread::hardware_concurrency());
}
}  // namespace

struct ThreadPool::Call {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t unfinished = 0;      // guarded by the pool's mutex_
  std::exception_ptr first_error;  // guarded by the pool's mutex_
  std::condition_variable done;    // notified when unfinished reaches 0
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  worker_busy_ms_.assign(threads, 0.0);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  chunk_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::pending() const {
  std::lock_guard lock(mutex_);
  return chunks_.size();
}

std::size_t ThreadPool::running() const {
  std::lock_guard lock(mutex_);
  return running_;
}

std::vector<double> ThreadPool::worker_busy_ms() const {
  std::lock_guard lock(mutex_);
  return worker_busy_ms_;
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (t_on_pool_worker) {
    body(0, n);  // nested call: run inline (see header)
    return;
  }
  const std::size_t workers = workers_.size();
  // Over-decompose a little so uneven chunks balance out.
  const std::size_t chunks = std::min(n, workers * 4);
  const std::size_t chunk = (n + chunks - 1) / chunks;

  Call call;
  call.body = &body;
  std::unique_lock lock(mutex_);
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    chunks_.push({&call, begin, std::min(n, begin + chunk)});
    ++call.unfinished;
  }
  chunk_ready_.notify_all();
  call.done.wait(lock, [&] { return call.unfinished == 0; });
  if (call.first_error) std::rethrow_exception(call.first_error);
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::unique_lock lock(mutex_);
  while (true) {
    chunk_ready_.wait(lock, [this] { return stopping_ || !chunks_.empty(); });
    if (chunks_.empty()) return;  // stopping with an empty queue
    const Chunk chunk = chunks_.front();
    chunks_.pop();
    Call& call = *chunk.call;
    // Once one chunk of a call has thrown, its remaining chunks are
    // skipped: the caller rethrows that first error.
    const bool skip = call.first_error != nullptr;
    ++running_;
    lock.unlock();

    const auto start = std::chrono::steady_clock::now();
    std::exception_ptr error;
    if (!skip) {
      t_on_pool_worker = true;
      try {
        (*call.body)(chunk.begin, chunk.end);
      } catch (...) {
        error = std::current_exception();
      }
      t_on_pool_worker = false;
    }
    const double chunk_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();

    lock.lock();
    worker_busy_ms_[worker_index] += chunk_ms;
    --running_;
    if (error && !call.first_error) call.first_error = error;
    // Notified under the lock: the caller cannot wake, return and
    // destroy `call` until this worker lets go of the mutex.
    if (--call.unfinished == 0) call.done.notify_one();
  }
}

ThreadPool& default_pool() {
  // The creation flag is flipped under the same mutex the override
  // uses so configure_default_pool can reliably reject a too-late call.
  static ThreadPool pool([] {
    std::lock_guard lock(g_default_pool_mutex);
    g_default_pool_created = true;
    return resolve_default_threads_locked();
  }());
  return pool;
}

void configure_default_pool(std::size_t threads) {
  if (threads < 1 || threads > kMaxDefaultPoolThreads) {
    throw std::invalid_argument(
        "configure_default_pool: threads must be in [1, 1024]");
  }
  std::lock_guard lock(g_default_pool_mutex);
  if (g_default_pool_created) {
    // An identical re-request is harmless (idempotent callers); a
    // different size can no longer take effect and must fail loudly.
    if (default_pool().size() == threads) return;
    throw std::logic_error(
        "configure_default_pool: default pool already created with " +
        std::to_string(default_pool().size()) + " threads");
  }
  g_default_pool_override = threads;
}

std::size_t default_pool_threads() {
  std::lock_guard lock(g_default_pool_mutex);
  if (g_default_pool_created) return default_pool().size();
  return resolve_default_threads_locked();
}

}  // namespace patchdb::util
