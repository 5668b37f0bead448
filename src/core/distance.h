// Weighted distance matrix between verified security patches and wild
// commits (Section III-B.2). Features are normalized per dimension by
// 1/max|a_j| computed over BOTH sets, then the M x N Euclidean distance
// matrix is filled in parallel row blocks. Stored as float: at paper
// scale (4076 x 200K) the matrix is ~3.3 GB, which is why the pipeline
// links through the streaming engine (core/streaming_link.h) and the
// full matrix serves only as the tests' oracle and ablation input. The
// weights, scaling and l2_cell below are shared by both paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "feature/features.h"

namespace patchdb::core {

/// Row-major M x N matrix of distances.
class DistanceMatrix {
 public:
  DistanceMatrix() = default;
  DistanceMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  float at(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }
  float& at(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }

  std::span<const float> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Max-abs weights learned over the union of both feature sets
/// (w_j = 1/max|a_j|, Section III-B.2). Dimensions that are identically
/// zero get weight 1. Both matrices must share a width; the weight
/// vector has that width, so the wider kSemantic space just works.
std::vector<double> maxabs_weights(const feature::FeatureMatrix& security,
                                   const feature::FeatureMatrix& wild);

/// Full weighted Euclidean distance matrix (parallel).
DistanceMatrix distance_matrix(const feature::FeatureMatrix& security,
                               const feature::FeatureMatrix& wild,
                               std::span<const double> weights);

/// Convenience: learn weights then compute.
DistanceMatrix distance_matrix(const feature::FeatureMatrix& security,
                               const feature::FeatureMatrix& wild);

/// Weighted Euclidean distance between two raw feature vectors (any
/// width; all three spans must agree).
double weighted_distance(std::span<const double> a, std::span<const double> b,
                         std::span<const double> weights);

/// Pre-scale a feature matrix by per-dimension weights into a packed
/// row-major float buffer (rows() x weights.size()). This is the exact
/// double-multiply-then-cast sequence the dense kernel uses; the
/// streaming engine shares it so its cells stay bit-identical to the
/// materialized matrix.
std::vector<float> scale_features(const feature::FeatureMatrix& matrix,
                                  std::span<const double> weights);

/// scale_features over the listed rows only (parallel): output row i is
/// input row rows[i], through the same arithmetic, so it is
/// bit-identical to that row of the full scale_features buffer.
std::vector<float> scale_features(const feature::FeatureMatrix& matrix,
                                  std::span<const double> weights,
                                  std::span<const std::uint32_t> rows);

/// The scalar distance cell both paths agree on: sequential float
/// accumulation of (a[j]-b[j])^2 followed by a float sqrt. Deliberately
/// a single out-of-line definition — one instantiation means one
/// rounding behavior, which is what makes the streaming engine's
/// results bit-identical to the dense matrix.
float l2_cell(const float* a, const float* b, std::size_t dims) noexcept;

}  // namespace patchdb::core
