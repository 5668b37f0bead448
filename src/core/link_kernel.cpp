#include "core/link_kernel.h"

#include <cmath>

// Lone translation unit on purpose: tools/vec_proof.sh compiles exactly
// this file with vectorization remarks enabled and greps for the block
// loops below, so keep them here and keep them simple (counted inner
// loops over `c` with a compile-time trip count, restrict-qualified
// pointers, no calls, no branches).
#define PATCHDB_RESTRICT __restrict__

namespace patchdb::core {

void sq_cell_block(const float* PATCHDB_RESTRICT a,
                   const float* PATCHDB_RESTRICT block, std::size_t dims,
                   float* PATCHDB_RESTRICT out) noexcept {
  for (std::size_t c = 0; c < kLinkGroupCols; ++c) out[c] = 0.0f;
  for (std::size_t j = 0; j < dims; ++j) {
    const float aj = a[j];
    const float* PATCHDB_RESTRICT row = block + j * kLinkGroupCols;
    for (std::size_t c = 0; c < kLinkGroupCols; ++c) {
      const float d = aj - row[c];
      out[c] += d * d;
    }
  }
}

void l2_cell_block(const float* a, const float* block, std::size_t dims,
                   float* out) noexcept {
  sq_cell_block(a, block, dims, out);
  for (std::size_t c = 0; c < kLinkGroupCols; ++c) out[c] = std::sqrt(out[c]);
}

void pack_cols_dim_major(const float* cols, std::size_t width,
                         std::size_t dims, float* dst) noexcept {
  for (std::size_t j = 0; j < dims; ++j) {
    float* PATCHDB_RESTRICT row = dst + j * kLinkGroupCols;
    for (std::size_t c = 0; c < width; ++c) row[c] = cols[c * dims + j];
    for (std::size_t c = width; c < kLinkGroupCols; ++c) row[c] = 0.0f;
  }
}

}  // namespace patchdb::core
