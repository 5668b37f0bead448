#include "obs/metrics.h"

#include <algorithm>
#include <mutex>
#include <utility>

namespace patchdb::obs {

namespace {

std::atomic<MetricsRegistry*> g_registry{nullptr};

}  // namespace

void Histogram::observe(double value) noexcept {
  // First bucket whose upper bound admits the value; last slot = +inf.
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(kHistogramBoundsMs.begin(), kHistogramBoundsMs.end(),
                       value) -
      kHistogramBoundsMs.begin());
  std::lock_guard lock(mutex_);
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  ++buckets_[bucket];
}

HistogramSnapshot Histogram::snapshot(std::string name) const {
  HistogramSnapshot h;
  h.name = std::move(name);
  h.bounds.assign(kHistogramBoundsMs.begin(), kHistogramBoundsMs.end());
  std::lock_guard lock(mutex_);
  h.count = count_;
  h.sum = sum_;
  h.min = min_;
  h.max = max_;
  h.buckets.assign(buckets_.begin(), buckets_.end());
  return h;
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double target = q * static_cast<double>(count);
  double seen = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double in_bucket = static_cast<double>(buckets[b]);
    if (seen + in_bucket < target) {
      seen += in_bucket;
      continue;
    }
    const double lo = b == 0 ? std::min(min, bounds.empty() ? min : bounds[0])
                             : bounds[b - 1];
    const double hi = b < bounds.size() ? bounds[b] : max;
    if (in_bucket <= 0.0) return std::clamp(hi, min, max);
    const double frac = (target - seen) / in_bucket;
    // Clamp to the observed range: interpolation inside the final
    // occupied bucket would otherwise report values above the true max.
    return std::clamp(lo + (hi - lo) * std::clamp(frac, 0.0, 1.0), min, max);
  }
  return max;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const noexcept {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const noexcept {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

double MetricsSnapshot::gauge(std::string_view name) const noexcept {
  const auto it = gauges.find(std::string(name));
  return it == gauges.end() ? 0.0 : it->second;
}

template <typename T>
T& MetricsRegistry::find_or_create(
    std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
    std::string_view name) {
  {
    std::shared_lock lock(mutex_);
    const auto it = map.find(name);
    if (it != map.end()) return *it->second;
  }
  std::unique_lock lock(mutex_);
  const auto it = map.find(name);
  if (it != map.end()) return *it->second;
  const auto inserted = map.emplace(std::string(name), std::make_unique<T>());
  return *inserted.first->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return find_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return find_or_create(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return find_or_create(histograms_, name);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::shared_lock lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.push_back(histogram->snapshot(name));
  }
  return snap;
}

MetricsRegistry* install_registry(MetricsRegistry* registry) noexcept {
  return g_registry.exchange(registry, std::memory_order_acq_rel);
}

MetricsRegistry* registry() noexcept {
  return g_registry.load(std::memory_order_acquire);
}

void counter_add(std::string_view name, std::uint64_t delta) noexcept {
  if (MetricsRegistry* r = registry()) r->counter(name).add(delta);
}

void gauge_set(std::string_view name, double value) noexcept {
  if (MetricsRegistry* r = registry()) r->gauge(name).set(value);
}

void gauge_add(std::string_view name, double delta) noexcept {
  if (MetricsRegistry* r = registry()) r->gauge(name).add(delta);
}

void histogram_observe(std::string_view name, double value) noexcept {
  if (MetricsRegistry* r = registry()) r->histogram(name).observe(value);
}

}  // namespace patchdb::obs
