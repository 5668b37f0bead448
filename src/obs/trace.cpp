#include "obs/trace.h"

#include <algorithm>

#include "obs/metrics.h"

#if defined(__linux__)
#include <time.h>  // NOLINT(modernize-deprecated-headers): clock_gettime
#endif

namespace patchdb::obs {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<std::uint64_t> g_generation{0};

std::int64_t thread_cpu_us() noexcept {
#if defined(__linux__)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<std::int64_t>(ts.tv_nsec) / 1'000;
#else
  return 0;
#endif
}

}  // namespace

/// Fixed-capacity span ring. push() never allocates once the slots are
/// reserved: overflow overwrites the oldest record and bumps `dropped`,
/// plus the live `obs.spans_dropped` counter so a running sampler (or a
/// human watching `patchdb metrics`) sees drops before the final report.
struct Tracer::ThreadRing {
  ThreadRing() { slots.reserve(kSpanRingCapacity); }

  void push(SpanRecord&& record) {
    bool overflowed = false;
    {
      std::lock_guard lock(mutex);
      if (slots.size() < kSpanRingCapacity) {
        slots.push_back(std::move(record));
      } else {
        slots[next] = std::move(record);
        next = (next + 1) % kSpanRingCapacity;
        ++dropped;
        overflowed = true;
      }
    }
    // Outside the ring lock: counter_add takes the registry's stripe
    // lock-free path but there is no reason to nest the two.
    if (overflowed) counter_add("obs.spans_dropped", 1);
  }

  std::mutex mutex;
  std::uint32_t thread_index = 0;
  std::vector<SpanRecord> slots;
  std::size_t next = 0;  // oldest slot once the ring has wrapped
  std::uint64_t dropped = 0;
};

namespace {

/// Per-thread tracer attachment: the ring this thread writes to, the
/// tracer generation it belongs to, and the open-span stack that gives
/// children their parent ids. A generation mismatch (tracer swapped)
/// resets everything lazily on the next span open.
struct LocalTraceState {
  std::uint64_t generation = 0;
  std::shared_ptr<Tracer::ThreadRing> ring;
  std::vector<std::uint64_t> stack;
};

LocalTraceState& local_trace_state() {
  thread_local LocalTraceState state;
  return state;
}

}  // namespace

Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now()),
      generation_(g_generation.fetch_add(1, std::memory_order_relaxed) + 1) {}

Tracer::~Tracer() {
  // Defensive: never leave a dangling global behind.
  Tracer* self = this;
  g_tracer.compare_exchange_strong(self, nullptr, std::memory_order_acq_rel);
}

std::shared_ptr<Tracer::ThreadRing> Tracer::local_ring() {
  LocalTraceState& state = local_trace_state();
  if (state.generation == generation_ && state.ring) return state.ring;
  auto ring = std::make_shared<ThreadRing>();
  {
    std::lock_guard lock(rings_mutex_);
    ring->thread_index = static_cast<std::uint32_t>(rings_.size());
    rings_.push_back(ring);
  }
  state.generation = generation_;
  state.ring = ring;
  state.stack.clear();
  return ring;
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    std::lock_guard lock(rings_mutex_);
    rings = rings_;
  }
  std::vector<SpanRecord> out;
  for (const std::shared_ptr<ThreadRing>& ring : rings) {
    std::lock_guard lock(ring->mutex);
    // Oldest first: [next, end) then [0, next) once wrapped.
    for (std::size_t i = 0; i < ring->slots.size(); ++i) {
      const std::size_t idx = ring->slots.size() < kSpanRingCapacity
                                  ? i
                                  : (ring->next + i) % kSpanRingCapacity;
      out.push_back(ring->slots[idx]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.thread_index != b.thread_index) {
                       return a.thread_index < b.thread_index;
                     }
                     if (a.start_us != b.start_us) return a.start_us < b.start_us;
                     // Sub-microsecond ties: span ids are assigned at
                     // open, so this keeps parents ahead of children.
                     return a.span_id < b.span_id;
                   });
  return out;
}

std::uint64_t Tracer::dropped() const noexcept {
  std::uint64_t total = 0;
  std::lock_guard lock(rings_mutex_);
  for (const std::shared_ptr<ThreadRing>& ring : rings_) {
    std::lock_guard ring_lock(ring->mutex);
    total += ring->dropped;
  }
  return total;
}

Tracer* install_tracer(Tracer* tracer) noexcept {
  return g_tracer.exchange(tracer, std::memory_order_acq_rel);
}

Tracer* tracer() noexcept { return g_tracer.load(std::memory_order_acquire); }

ScopedSpan::ScopedSpan(std::string_view name) {
  Tracer* t = tracer();
  if (t == nullptr) return;  // disabled: nothing below runs
  LocalTraceState& state = local_trace_state();
  if (state.generation != t->generation_ || !state.ring) t->local_ring();
  active_ = true;
  generation_ = t->generation_;
  name_ = name;
  epoch_ = t->epoch();
  parent_id_ = state.stack.empty() ? 0 : state.stack.back();
  depth_ = static_cast<std::uint32_t>(state.stack.size());
  span_id_ = t->next_span_id();
  state.stack.push_back(span_id_);
  cpu_start_us_ = thread_cpu_us();
  wall_start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const auto wall_end = std::chrono::steady_clock::now();
  const std::int64_t cpu_end_us = thread_cpu_us();
  LocalTraceState& state = local_trace_state();
  // If the tracer was swapped while this span was open, its ring (still
  // held by `state.ring` only if the generation matches) is gone for
  // this thread; drop the record rather than write into a new tracer.
  if (state.generation != generation_ || !state.ring) return;
  // Unwind the open-span stack down to (and including) this span. Spans
  // are strictly scoped so this is normally a single pop.
  while (!state.stack.empty() && state.stack.back() != span_id_) {
    state.stack.pop_back();
  }
  if (!state.stack.empty()) state.stack.pop_back();

  SpanRecord record;
  record.name = std::string(name_);
  record.thread_index = state.ring->thread_index;
  record.span_id = span_id_;
  record.parent_id = parent_id_;
  record.depth = depth_;
  record.start_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        wall_start_ - epoch_)
                        .count();
  record.wall_us =
      std::chrono::duration_cast<std::chrono::microseconds>(wall_end - wall_start_)
          .count();
  record.cpu_us = cpu_end_us > cpu_start_us_ ? cpu_end_us - cpu_start_us_ : 0;
  state.ring->push(std::move(record));
}

}  // namespace patchdb::obs
