// Duplicate-heavy feature matrices for the nearest-link identity tests.
// Uniform random features never repeat; pipeline features are small
// integer counts that repeat all the time. Rows drawn from a small
// palette of integer-valued vectors give both exact duplicates and
// distinct but equidistant vectors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "feature/features.h"
#include "util/rng.h"

namespace patchdb::test_util {

using Palette = std::vector<std::vector<double>>;

/// `size` distinct vectors: dims 0-5 in {-1, 0, 1}, dim 6 in
/// {0, ..., 3}, the rest zero.
inline Palette make_palette(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  std::set<std::vector<double>> seen;
  Palette palette;
  while (palette.size() < size) {
    std::vector<double> v(feature::kFeatureCount, 0.0);
    for (std::size_t j = 0; j < 6; ++j) {
      v[j] = static_cast<double>(rng.index(3)) - 1.0;
    }
    v[6] = static_cast<double>(rng.index(4));
    if (seen.insert(v).second) palette.push_back(std::move(v));
  }
  return palette;
}

/// Rows drawn from a palette: the first rows list every entry once (so
/// a matrix with at least palette.size() rows holds all of them), the
/// rest are random picks.
inline feature::FeatureMatrix palette_features(const Palette& palette,
                                               std::size_t rows,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  feature::FeatureMatrix m(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    m.set_row(i, palette[i < palette.size() ? i : rng.index(palette.size())]);
  }
  return m;
}

}  // namespace patchdb::test_util
