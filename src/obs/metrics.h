// Metrics registry: counters, gauges and fixed-bucket histograms, found
// by name and aggregated into a snapshot when a report is taken.
//
// Metric names follow the `stage.metric` dotted convention
// ("distance.rows", "serve.request_ms", "augment.round.3.hit_ratio") so
// the JSON artifact groups naturally and future PRs can diff
// trajectories.
//
// Cost model:
//   - no registry installed: one relaxed atomic load per call site;
//   - registry installed: a shared lock and a std::map lookup by name,
//     then one relaxed atomic update (counter, gauge) or one short
//     mutex hold (histogram). Instrumentation is placed at block, round and
//     request granularity, never per matrix element or per pool task:
//     the busiest traffic is a few updates per served request, so one
//     atomic per counter is enough, and the name lookup, not the
//     update, is the cost.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace patchdb::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-writer-wins double value (plus add() for accumulating gauges).
/// Single atomic: gauges are set at round or configuration granularity,
/// not in hot loops.
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

/// The upper bounds of every histogram's buckets, in milliseconds
/// (0.05 ms .. 10 s in roughly 1-2.5-5 steps); a last, implicit bucket
/// holds everything above. Every histogram the repo records is a
/// latency or a busy time.
inline constexpr std::array<double, 17> kHistogramBoundsMs = {
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0};

/// One histogram at one point in time.
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

/// One count, sum, min, max and bucket array behind one mutex, so a
/// snapshot always sees the buckets add up to the count.
class Histogram {
 public:
  void observe(double value) noexcept;

  /// The histogram now, named `name`. min and max are +inf / -inf when
  /// it is empty.
  HistogramSnapshot snapshot(std::string name) const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::array<std::uint64_t, kHistogramBoundsMs.size() + 1> buckets_{};
};

/// Aggregated, immutable view of a registry at one point in time.
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
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

 private:
  template <typename T>
  T& find_or_create(std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
                    std::string_view name);

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

}  // namespace patchdb::obs

// Call-site macros. With no registry installed each costs the one
// relaxed load inside the helper it names.
#define PATCHDB_COUNTER_ADD(name, delta) \
  ::patchdb::obs::counter_add((name), (delta))
#define PATCHDB_GAUGE_SET(name, value) ::patchdb::obs::gauge_set((name), (value))
#define PATCHDB_GAUGE_ADD(name, delta) ::patchdb::obs::gauge_add((name), (delta))
#define PATCHDB_HISTOGRAM_OBSERVE(name, value) \
  ::patchdb::obs::histogram_observe((name), (value))
