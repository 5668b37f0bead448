#include "core/index.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/link_kernel.h"
#include "util/thread_pool.h"

namespace patchdb::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Absolute slack factor on pending bounds: the bound-side geometry is
/// computed in double, whose rounding error is ~1e-13 relative to the
/// operand magnitudes — 1e-9 leaves four orders of headroom while
/// staying negligible against any gap worth screening on.
constexpr double kBoundSlack = 1e-9;

std::size_t round_up_groups(std::size_t v) noexcept {
  return (v + kLinkGroupCols - 1) / kLinkGroupCols * kLinkGroupCols;
}

/// Double-precision distance between a float column and a double
/// centroid (the bound-side metric; the kernel-side metric is the float
/// l2_cell, related through index_pending_margin).
double col_centroid_distance(const float* b, const double* c,
                             std::size_t dims) noexcept {
  double total = 0.0;
  for (std::size_t j = 0; j < dims; ++j) {
    const double d = static_cast<double>(b[j]) - c[j];
    total += d * d;
  }
  return std::sqrt(total);
}

/// Pack `count` double centroids (row-major) into the dim-major float
/// layout the blocked kernel consumes. Returns the lane stride.
std::size_t pack_centroids(const std::vector<double>& centroids,
                           std::size_t count, std::size_t dims,
                           std::vector<float>& pack) {
  const std::size_t stride = round_up_groups(std::max<std::size_t>(count, 1));
  pack.assign(stride * dims, 0.0f);
  for (std::size_t c = 0; c < count; ++c) {
    for (std::size_t j = 0; j < dims; ++j) {
      pack[j * stride + c] = static_cast<float>(centroids[c * dims + j]);
    }
  }
  return stride;
}

/// Assign each column to its nearest packed centroid through the
/// blocked float kernel (strict `<` keeps the lowest id on ties, so the
/// assignment is deterministic for every worker count). Assignment
/// quality only moves speed: the pending bounds are computed from the
/// members a cluster actually received.
void assign_nearest(const float* cols, std::size_t count, std::size_t dims,
                    const std::vector<float>& pack, std::size_t stride,
                    std::size_t centroid_count, std::uint32_t* assign) {
  util::default_pool().parallel_for(
      count, [&](std::size_t begin, std::size_t end) {
        std::vector<float> lane(kLinkGroupCols);
        for (std::size_t i = begin; i < end; ++i) {
          const float* p = cols + i * dims;
          float best = std::numeric_limits<float>::infinity();
          std::uint32_t best_j = 0;
          for (std::size_t g = 0; g * kLinkGroupCols < centroid_count; ++g) {
            const std::size_t lo = g * kLinkGroupCols;
            const std::size_t gw =
                std::min(kLinkGroupCols, centroid_count - lo);
            sq_cell_block(p, pack.data() + lo, dims, kLinkGroupCols, stride,
                          lane.data());
            for (std::size_t l = 0; l < gw; ++l) {
              if (lane[l] < best) {
                best = lane[l];
                best_j = static_cast<std::uint32_t>(lo + l);
              }
            }
          }
          assign[i] = best_j;
        }
      });
}

/// Probing loop: partitions arrive as (lower_bound, id) pairs
/// sorted ascending; probe until nprobe partitions AND min(k, n)
/// columns are covered, then bound the rest by the first unprobed
/// partition's lower bound (the sort makes it the minimum).
struct Partitioned {
  std::vector<std::uint32_t> ordering;  // columns grouped by partition
  std::vector<std::uint32_t> starts;    // partition p at [starts[p], starts[p+1])

  void build_from_assignment(const std::vector<std::uint32_t>& assign,
                             std::size_t partitions) {
    const std::size_t n = assign.size();
    starts.assign(partitions + 1, 0);
    for (std::uint32_t p : assign) ++starts[p + 1];
    for (std::size_t p = 0; p < partitions; ++p) starts[p + 1] += starts[p];
    ordering.resize(n);
    std::vector<std::uint32_t> cursor(starts.begin(), starts.end() - 1);
    for (std::size_t c = 0; c < n; ++c) {
      ordering[cursor[assign[c]]++] = static_cast<std::uint32_t>(c);
    }
  }

  IndexShortlist probe(
      std::vector<std::pair<double, std::uint32_t>>& order, std::size_t k,
      std::size_t n, std::size_t nprobe, double margin,
      std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges) const {
    std::sort(order.begin(), order.end());
    IndexShortlist out;
    const std::size_t want_cols = std::min(k, n);
    std::size_t i = 0;
    for (; i < order.size(); ++i) {
      if (out.probes >= nprobe && out.cols >= want_cols) break;
      const std::uint32_t p = order[i].second;
      ranges.emplace_back(starts[p], starts[p + 1]);
      out.cols += starts[p + 1] - starts[p];
      ++out.probes;
    }
    out.pending_lb =
        i < order.size() ? order[i].first * (1.0 - margin) : kInf;
    return out;
  }
};

class ExactIndex final : public Index {
 public:
  IndexKind kind() const noexcept override { return IndexKind::kExact; }

  void build(const float*, std::size_t n, std::size_t) override {
    ordering_.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
      ordering_[c] = static_cast<std::uint32_t>(c);
    }
  }

  std::span<const std::uint32_t> ordering() const noexcept override {
    return ordering_;
  }

  IndexShortlist shortlist(const float*, std::size_t,
                           std::vector<std::pair<std::uint32_t, std::uint32_t>>&
                               ranges) const override {
    IndexShortlist out;
    if (!ordering_.empty()) {
      ranges.emplace_back(0, static_cast<std::uint32_t>(ordering_.size()));
      out.cols = ordering_.size();
      out.probes = 1;
    }
    return out;  // pending_lb stays +inf: nothing is pending
  }

 private:
  std::vector<std::uint32_t> ordering_;
};

/// k-means coarse quantizer. Training runs a short Lloyd loop over an
/// evenly-spaced subsample (deterministic init, blocked-kernel
/// assignment, double-precision means); every column is then assigned
/// once and each cluster records its exact double-precision radius, so
/// the triangle-inequality bound d(query, centroid) - radius holds for
/// every member regardless of how rough the training was.
class CoarseIndex final : public Index {
 public:
  explicit CoarseIndex(const IndexConfig& config) : config_(config) {}

  IndexKind kind() const noexcept override { return IndexKind::kCoarse; }

  void build(const float* cols, std::size_t n, std::size_t dims) override {
    dims_ = dims;
    n_ = n;
    parts_ = Partitioned{};
    centroids_.clear();
    radius_.clear();
    if (n == 0) return;

    std::size_t c_count = config_.clusters > 0
                              ? config_.clusters
                              : static_cast<std::size_t>(
                                    std::sqrt(static_cast<double>(n)));
    c_count = std::clamp<std::size_t>(c_count, 1, std::min<std::size_t>(n, 4096));

    // Evenly spaced init over the pool, then two Lloyd rounds on an
    // evenly spaced subsample — enough to separate the data's modes;
    // residual roughness is absorbed by the per-cluster radii.
    centroids_.assign(c_count * dims, 0.0);
    for (std::size_t j = 0; j < c_count; ++j) {
      const float* src = cols + (j * n / c_count) * dims;
      for (std::size_t t = 0; t < dims; ++t) {
        centroids_[j * dims + t] = static_cast<double>(src[t]);
      }
    }
    const std::size_t samples = std::min(n, c_count * 16);
    std::vector<float> sample(samples * dims);
    for (std::size_t i = 0; i < samples; ++i) {
      const float* src = cols + (i * n / samples) * dims;
      std::copy_n(src, dims, sample.data() + i * dims);
    }
    std::vector<float> pack;
    std::vector<std::uint32_t> assign(samples);
    std::vector<double> sums(c_count * dims);
    std::vector<std::uint32_t> counts(c_count);
    for (int iter = 0; iter < 2; ++iter) {
      const std::size_t stride = pack_centroids(centroids_, c_count, dims, pack);
      assign_nearest(sample.data(), samples, dims, pack, stride, c_count,
                     assign.data());
      std::fill(sums.begin(), sums.end(), 0.0);
      std::fill(counts.begin(), counts.end(), 0u);
      for (std::size_t i = 0; i < samples; ++i) {
        double* s = sums.data() + assign[i] * dims;
        const float* p = sample.data() + i * dims;
        for (std::size_t t = 0; t < dims; ++t) s[t] += static_cast<double>(p[t]);
        ++counts[assign[i]];
      }
      for (std::size_t j = 0; j < c_count; ++j) {
        if (counts[j] == 0) continue;  // empty: keep the old centroid
        const double inv = 1.0 / static_cast<double>(counts[j]);
        for (std::size_t t = 0; t < dims; ++t) {
          centroids_[j * dims + t] = sums[j * dims + t] * inv;
        }
      }
    }

    // One full assignment pass, then the exact member radii the pending
    // bound leans on.
    const std::size_t stride = pack_centroids(centroids_, c_count, dims, pack);
    std::vector<std::uint32_t> full(n);
    assign_nearest(cols, n, dims, pack, stride, c_count, full.data());
    parts_.build_from_assignment(full, c_count);
    radius_.assign(c_count, 0.0);
    util::default_pool().parallel_for(
        c_count, [&](std::size_t begin, std::size_t end) {
          for (std::size_t j = begin; j < end; ++j) {
            double r = 0.0;
            for (std::uint32_t i = parts_.starts[j]; i < parts_.starts[j + 1];
                 ++i) {
              r = std::max(r, col_centroid_distance(
                                  cols + parts_.ordering[i] * dims,
                                  centroids_.data() + j * dims, dims));
            }
            radius_[j] = r;
          }
        });
  }

  std::span<const std::uint32_t> ordering() const noexcept override {
    return parts_.ordering;
  }

  IndexShortlist shortlist(const float* query, std::size_t k,
                           std::vector<std::pair<std::uint32_t, std::uint32_t>>&
                               ranges) const override {
    if (n_ == 0) return {};
    const std::size_t c_count = radius_.size();
    std::vector<std::pair<double, std::uint32_t>> order;
    order.reserve(c_count);
    for (std::size_t j = 0; j < c_count; ++j) {
      if (parts_.starts[j] == parts_.starts[j + 1]) continue;
      const double d =
          col_centroid_distance(query, centroids_.data() + j * dims_, dims_);
      // ||query - member|| >= d - radius for every member (triangle
      // inequality on the real distances; the slack absorbs the double
      // rounding in d and radius).
      const double slack = kBoundSlack * (d + radius_[j] + 1.0);
      order.emplace_back(std::max(0.0, d - radius_[j] - slack),
                         static_cast<std::uint32_t>(j));
    }
    return parts_.probe(order, k, n_, config_.nprobe,
                        index_pending_margin(dims_), ranges);
  }

 private:
  IndexConfig config_;
  std::size_t dims_ = 0;
  std::size_t n_ = 0;
  std::vector<double> centroids_;  // c_count x dims, row-major
  std::vector<double> radius_;     // max member<->centroid distance
  Partitioned parts_;
};

}  // namespace

std::string_view index_kind_name(IndexKind kind) noexcept {
  switch (kind) {
    case IndexKind::kExact: return "exact";
    case IndexKind::kCoarse: return "coarse";
  }
  return "unknown";
}

IndexKind parse_index_kind(std::string_view name) {
  if (name == "exact") return IndexKind::kExact;
  if (name == "coarse") return IndexKind::kCoarse;
  throw std::invalid_argument("index: unknown kind \"" + std::string(name) +
                              "\" (want exact or coarse)");
}

std::unique_ptr<Index> make_index(const IndexConfig& config) {
  if (config.kind != IndexKind::kExact && config.nprobe == 0) {
    throw std::invalid_argument(
        "index: nprobe must be >= 1 for the " +
        std::string(index_kind_name(config.kind)) + " backend");
  }
  switch (config.kind) {
    case IndexKind::kExact: return std::make_unique<ExactIndex>();
    case IndexKind::kCoarse: return std::make_unique<CoarseIndex>(config);
  }
  throw std::invalid_argument("index: unknown IndexKind");
}

}  // namespace patchdb::core
