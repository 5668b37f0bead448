#include "core/distance.h"

#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace patchdb::core {

std::vector<double> maxabs_weights(const feature::FeatureMatrix& security,
                                   const feature::FeatureMatrix& wild) {
  const std::size_t dims = security.rows() > 0 ? security.cols() : wild.cols();
  if (wild.rows() > 0 && security.rows() > 0 && wild.cols() != dims) {
    throw std::invalid_argument("maxabs_weights: feature-space width mismatch");
  }
  std::vector<double> max_abs(dims, 0.0);
  auto scan = [&max_abs, dims](const feature::FeatureMatrix& m) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
      const std::span<const double> row = m[i];
      for (std::size_t j = 0; j < dims; ++j) {
        max_abs[j] = std::max(max_abs[j], std::fabs(row[j]));
      }
    }
  };
  scan(security);
  scan(wild);
  std::vector<double> weights(dims, 1.0);
  for (std::size_t j = 0; j < dims; ++j) {
    if (max_abs[j] > 0.0) weights[j] = 1.0 / max_abs[j];
  }
  return weights;
}

double weighted_distance(std::span<const double> a, std::span<const double> b,
                         std::span<const double> weights) {
  double total = 0.0;
  for (std::size_t j = 0; j < weights.size(); ++j) {
    const double d = (a[j] - b[j]) * weights[j];
    total += d * d;
  }
  return std::sqrt(total);
}

namespace {

void scale_row(std::span<const double> row, std::span<const double> weights,
               float* out) noexcept {
  for (std::size_t j = 0; j < weights.size(); ++j) {
    out[j] = static_cast<float>(row[j] * weights[j]);
  }
}

}  // namespace

std::vector<float> scale_features(const feature::FeatureMatrix& matrix,
                                  std::span<const double> weights) {
  const std::size_t dims = weights.size();
  std::vector<float> out(matrix.rows() * dims);
  for (std::size_t i = 0; i < matrix.rows(); ++i) {
    scale_row(matrix[i], weights, out.data() + i * dims);
  }
  return out;
}

std::vector<float> scale_features(const feature::FeatureMatrix& matrix,
                                  std::span<const double> weights,
                                  std::span<const std::uint32_t> rows) {
  const std::size_t dims = weights.size();
  std::vector<float> out(rows.size() * dims);
  util::default_pool().parallel_for(
      rows.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          scale_row(matrix[rows[i]], weights, out.data() + i * dims);
        }
      });
  return out;
}

float l2_cell(const float* a, const float* b, std::size_t dims) noexcept {
  float total = 0.0f;
  for (std::size_t j = 0; j < dims; ++j) {
    const float d = a[j] - b[j];
    total += d * d;
  }
  return std::sqrt(total);
}

DistanceMatrix distance_matrix(const feature::FeatureMatrix& security,
                               const feature::FeatureMatrix& wild,
                               std::span<const double> weights) {
  const std::size_t dims = weights.size();
  if (dims != security.cols() || dims != wild.cols()) {
    throw std::invalid_argument("distance_matrix: bad weight vector");
  }
  const std::size_t m = security.rows();
  const std::size_t n = wild.rows();
  DistanceMatrix matrix(m, n);

  PATCHDB_TRACE_SPAN("distance.matrix");
  PATCHDB_COUNTER_ADD("distance.calls", 1);
  PATCHDB_COUNTER_ADD("distance.rows", m);
  PATCHDB_COUNTER_ADD("distance.cells", m * n);
  // 3 FLOPs per dimension per cell (sub, mul, add) + the final sqrt.
  PATCHDB_COUNTER_ADD("distance.flops", m * n * (3 * dims + 1));

  // Pre-scale both sides once so the inner loop is a plain L2.
  const std::vector<float> sec = scale_features(security, weights);
  const std::vector<float> wld = scale_features(wild, weights);

  util::default_pool().parallel_for(m, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      const float* a = sec.data() + r * dims;
      for (std::size_t c = 0; c < n; ++c) {
        matrix.at(r, c) = l2_cell(a, wld.data() + c * dims, dims);
      }
    }
  });
  return matrix;
}

DistanceMatrix distance_matrix(const feature::FeatureMatrix& security,
                               const feature::FeatureMatrix& wild) {
  return distance_matrix(security, wild, maxabs_weights(security, wild));
}

}  // namespace patchdb::core
