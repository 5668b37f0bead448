// Lock-cheap metrics registry: counters, gauges, and fixed-bucket
// histograms, updated through per-thread shards (cache-line padded
// atomic stripes) and aggregated only when a snapshot is taken.
//
// Metric names follow the `stage.metric` dotted convention
// ("distance.rows", "pool.task_ms", "augment.round.3.hit_ratio") so the
// JSON artifact groups naturally and future PRs can diff trajectories.
//
// Cost model:
//   - no registry installed: one relaxed atomic load per call site;
//   - registry installed: one shared-lock hash lookup plus one relaxed
//     fetch_add on the caller's stripe. Instrumentation is placed at
//     block/round/task granularity, never per matrix element.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace patchdb::obs {

/// Number of counter stripes. Threads hash onto stripes round-robin;
/// 16 stripes keep the false-sharing odds low for the pool sizes the
/// repo uses (hardware_concurrency workers) without bloating snapshots.
inline constexpr std::size_t kMetricShards = 16;

/// Stable per-thread stripe index in [0, kMetricShards).
std::size_t thread_shard() noexcept;

class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    shards_[thread_shard()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Last-writer-wins double value (plus add() for accumulating gauges
/// like queue depth deltas). Single atomic: gauges are set at round or
/// configuration granularity, not in hot loops.
class Gauge {
 public:
  void set(double value) noexcept {
    bits_.store(encode(value), std::memory_order_relaxed);
  }
  void add(double delta) noexcept {
    std::uint64_t expected = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(expected, encode(decode(expected) + delta),
                                        std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return decode(bits_.load(std::memory_order_relaxed));
  }

 private:
  static std::uint64_t encode(double v) noexcept {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double decode(std::uint64_t bits) noexcept {
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::atomic<std::uint64_t> bits_{0x0ULL};  // 0.0
};

/// Fixed upper-bound bucket layout shared by histograms of one unit.
/// The last implicit bucket is +inf; `bounds` must be strictly
/// ascending.
struct BucketLayout {
  std::vector<double> bounds;

  /// Latencies in milliseconds: 0.05 ms .. 10 s, roughly 1-2.5-5 steps.
  static const BucketLayout& time_ms();
  /// Ratios/fractions in [0, 1], 0.05 steps.
  static const BucketLayout& ratio();
  /// Item counts: powers of four from 1 to ~16M.
  static const BucketLayout& count();
};

class Histogram {
 public:
  explicit Histogram(const BucketLayout& layout);

  void observe(double value) noexcept;

  std::uint64_t count() const noexcept;
  double sum() const noexcept;
  /// +inf / -inf when empty.
  double min() const noexcept;
  double max() const noexcept;
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket counts, size bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_bits{0};  // double, CAS-accumulated
    // bucket counts live in a flat array indexed [shard][bucket]
  };

  std::vector<double> bounds_;
  std::array<Shard, kMetricShards> shards_{};
  std::vector<std::atomic<std::uint64_t>> buckets_;  // kMetricShards * n_buckets
  std::atomic<std::uint64_t> min_bits_;
  std::atomic<std::uint64_t> max_bits_;
};

/// Aggregated, immutable view of a registry at one point in time.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // undefined when count == 0
  double max = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1

  double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Linear-interpolated quantile estimate from the bucket counts
  /// (q in [0,1]); exact min/max at the extremes.
  double quantile(double q) const noexcept;
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::vector<HistogramSnapshot> histograms;

  const HistogramSnapshot* histogram(std::string_view name) const noexcept;
  std::uint64_t counter(std::string_view name) const noexcept;
  double gauge(std::string_view name) const noexcept;  // 0.0 when absent
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. References stay valid for the registry's
  /// lifetime (metrics are never removed).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name,
                       const BucketLayout& layout = BucketLayout::time_ms());

  MetricsSnapshot snapshot() const;

 private:
  template <typename T, typename... Args>
  T& find_or_create(std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
                    std::string_view name, Args&&... args);

  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Process-global sink. Null by default: every instrumentation call
/// site first does one relaxed load and bails, so uninstrumented runs
/// pay (almost) nothing. install_registry returns the previous sink so
/// scoped installs can nest (see ObsSession).
MetricsRegistry* install_registry(MetricsRegistry* registry) noexcept;
MetricsRegistry* registry() noexcept;

/// Convenience call-site helpers: no-ops when no registry is installed.
void counter_add(std::string_view name, std::uint64_t delta = 1) noexcept;
void gauge_set(std::string_view name, double value) noexcept;
void gauge_add(std::string_view name, double delta) noexcept;
void histogram_observe(std::string_view name, double value) noexcept;
void histogram_observe(std::string_view name, double value,
                       const BucketLayout& layout) noexcept;

}  // namespace patchdb::obs

// Call-site macros. With no registry installed each costs the one
// relaxed load inside the helper it names.
#define PATCHDB_COUNTER_ADD(name, delta) \
  ::patchdb::obs::counter_add((name), (delta))
#define PATCHDB_GAUGE_SET(name, value) ::patchdb::obs::gauge_set((name), (value))
#define PATCHDB_GAUGE_ADD(name, delta) ::patchdb::obs::gauge_add((name), (delta))
#define PATCHDB_HISTOGRAM_OBSERVE(name, value) \
  ::patchdb::obs::histogram_observe((name), (value))
