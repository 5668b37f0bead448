// Point queries over a pre-scaled feature corpus — the online entry
// point the serve subsystem exposes over the wire. The corpus is the
// row-major float buffer core::scale_features produces, packed once
// dim-major in kLinkGroupCols-row blocks; knn_query answers "k nearest
// rows to this scaled vector" by running the blocked l2_cell_block
// kernel over it. Each lane of that kernel is bit-identical to the
// scalar core::l2_cell the dense matrix and the streaming link engine
// run, so served distances equal the offline ones (same float
// accumulation order, same rounding). Ties break toward the lowest row
// index, matching nearest_link_search and the streaming engine's
// selection order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/distance.h"

namespace patchdb::core {

struct KnnHit {
  std::size_t index = 0;  // row in the scaled corpus
  float distance = 0.0f;  // l2_cell output, bit-identical to the kernels

  friend bool operator==(const KnnHit&, const KnnHit&) = default;
};

/// A scaled corpus in the blocked kernel's layout: block b holds rows
/// [b*kLinkGroupCols, (b+1)*kLinkGroupCols), dim j of its row c at
/// blocks[(b*dims + j)*kLinkGroupCols + c]; the last block is
/// zero-padded. Served nearest queries, the link engine's pass 1 and its
/// full-row re-scans scan this layout.
struct PackedCorpus {
  std::vector<float> blocks;
  std::size_t rows = 0;
  std::size_t dims = 0;
};

/// Pack the rows x dims row-major buffer from core::scale_features
/// (parallel over blocks).
PackedCorpus pack_corpus(std::span<const float> scaled, std::size_t dims);

/// The `k` corpus rows nearest to `query` (a scaled row of the same
/// width), ascending by (distance, index). Returns fewer than `k` hits
/// when the corpus is smaller than `k`; an empty corpus or an empty
/// query yields no hits.
std::vector<KnnHit> knn_query(const PackedCorpus& corpus,
                              std::span<const float> query, std::size_t k);

/// Scale one raw feature vector by per-dimension weights through the
/// same double-multiply-then-cast sequence as core::scale_features, so
/// a query vector submitted over the wire lands on the exact floats a
/// corpus row with equal features would occupy.
std::vector<float> scale_query(std::span<const double> vector,
                               std::span<const double> weights);

}  // namespace patchdb::core
