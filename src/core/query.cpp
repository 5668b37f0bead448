#include "core/query.h"

#include <algorithm>

#include "core/link_kernel.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace patchdb::core {

PackedCorpus pack_corpus(std::span<const float> scaled, std::size_t dims) {
  PackedCorpus corpus;
  if (dims == 0) return corpus;
  corpus.rows = scaled.size() / dims;
  corpus.dims = dims;
  const std::size_t blocks = (corpus.rows + kLinkGroupCols - 1) / kLinkGroupCols;
  corpus.blocks.resize(blocks * kLinkGroupCols * dims);
  util::default_pool().parallel_for(
      blocks, [&](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) {
          const std::size_t r0 = b * kLinkGroupCols;
          pack_cols_dim_major(scaled.data() + r0 * dims,
                              std::min(kLinkGroupCols, corpus.rows - r0),
                              dims, corpus.blocks.data() + r0 * dims);
        }
      });
  return corpus;
}

std::vector<KnnHit> knn_query(const PackedCorpus& corpus,
                              std::span<const float> query, std::size_t k) {
  std::vector<KnnHit> hits;
  const std::size_t dims = corpus.dims;
  const std::size_t rows = corpus.rows;
  if (dims == 0 || query.size() != dims || k == 0 || rows == 0) return hits;

  // Bounded worst-first heap: O(rows log k), no full-corpus sort. The
  // comparator orders by (distance, index) so the heap top is the hit
  // a better candidate must beat — including on exact float ties,
  // where the lower index wins.
  const auto worse = [](const KnnHit& a, const KnnHit& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.index < b.index;
  };
  hits.reserve(std::min(k, rows));
  float lane[kLinkGroupCols];
  for (std::size_t r0 = 0; r0 < rows; r0 += kLinkGroupCols) {
    l2_cell_block(query.data(), corpus.blocks.data() + r0 * dims, dims, lane);
    const std::size_t width = std::min(kLinkGroupCols, rows - r0);
    for (std::size_t c = 0; c < width; ++c) {
      const KnnHit hit{r0 + c, lane[c]};
      if (hits.size() < k) {
        hits.push_back(hit);
        std::push_heap(hits.begin(), hits.end(), worse);
      } else if (worse(hit, hits.front())) {
        std::pop_heap(hits.begin(), hits.end(), worse);
        hits.back() = hit;
        std::push_heap(hits.begin(), hits.end(), worse);
      }
    }
  }
  std::sort_heap(hits.begin(), hits.end(), worse);
  PATCHDB_COUNTER_ADD("query.knn", 1);
  PATCHDB_COUNTER_ADD("query.knn.cells", rows);
  return hits;
}

std::vector<float> scale_query(std::span<const double> vector,
                               std::span<const double> weights) {
  std::vector<float> out(weights.size());
  for (std::size_t j = 0; j < weights.size() && j < vector.size(); ++j) {
    out[j] = static_cast<float>(vector[j] * weights[j]);
  }
  return out;
}

}  // namespace patchdb::core
