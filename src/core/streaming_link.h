// Streaming tiled nearest-link engine: Algorithm 1 without the dense
// M x N distance matrix (Section III-B at corpus scale). This is the
// one engine the augmentation loop runs; the dense pair in
// core/nearest_link.h stays as the tests' oracle and for ablations.
//
// The dense path materializes every distance (~3.3 GB at the paper's
// 4076 x 200K shape) and the greedy link re-scans full O(N) rows on
// candidate collisions. This engine instead
//
//   0. groups bit-identical feature rows on both sides — Table I
//      features are small counts, so patches repeat — and runs every
//      step below over distinct seeds x distinct pool vectors; the
//      greedy maps each pick back to the lowest unused member of the
//      tied groups (DESIGN.md §3d has the exactness argument);
//   1. packs the distinct pool once, dim-major in kLinkGroupCols-column
//      blocks (core::PackedCorpus, the layout patchdbd's nearest query
//      scans too);
//   2. splits the distinct seed rows across the default thread pool:
//      each chunk streams the pack in tiles of 32 blocks for its own
//      rows, so one thread fills each row's top-k candidate heap in
//      column order, exactly as a serial scan would, with no shared
//      mutable state and nothing to merge. Each block runs through the
//      blocked SIMD kernel (core/link_kernel.h), and a block or lane
//      whose exact distance cannot enter the full heap skips the heap;
//   3. drives the greedy selection in the static order of each row's
//      cached minimum instead of the dense path's O(M^2) linear
//      argmin sweep; and
//   4. when a row's cached list cannot prove its pick (used up by
//      earlier links, or a tie may lie outside it), falls back to a
//      tracked full-row re-scan (counter
//      `nearest_link.fallback_rescans`): one serial pass of the same
//      blocked kernel over the same pack.
//
// Results are bit-identical to
//   nearest_link_search(distance_matrix(security, wild, weights))
// on equal inputs: every computed cell runs the exact arithmetic of the
// scalar kernel (core::l2_cell) lane-parallel (see link_kernel.h for
// why vectorizing across columns preserves each lane bit-for-bit),
// identical rows give identical cells, ties break toward the lowest
// unused column index, and a cell skips a heap only when its exact
// distance provably cannot enter it. The pool size therefore affects
// speed, never the LinkResult.
//
// Nothing is tunable. k (24 candidates per distinct seed) and the tile
// width (2,048 columns) are constants clamped to the distinct counts,
// and pass 1 runs on the default pool (`--threads` / PATCHDB_THREADS).
// DESIGN.md §3d shows that none of them can change a LinkResult.
#pragma once

#include <cstddef>
#include <span>

#include "core/nearest_link.h"
#include "feature/features.h"

namespace patchdb::core {

/// Per-run introspection (mirrors the obs counters, usable without a
/// registry installed). Every count but `threads` is a function of the
/// inputs alone, the same for every pool size — like the LinkResult.
struct StreamingLinkStats {
  std::size_t tiles = 0;             // 2,048-column tiles in the pack
  std::size_t exact_cells = 0;       // distinct seeds x distinct pool
  std::size_t topk_hits = 0;         // links served from a row's heap
  std::size_t fallback_rescans = 0;  // links that re-scanned a full row
  std::size_t distinct_rows = 0;     // seed rows, identical ones as one
  std::size_t distinct_cols = 0;     // pool rows, identical ones as one
  std::size_t threads = 0;           // min(pool workers, distinct_rows)
  std::size_t working_set_bytes = 0; // engine-owned footprint
};

/// Algorithm 1 end to end — bit-identical LinkResult to the dense
/// nearest_link_search over distance_matrix(security, wild, weights),
/// O(M·k + N·d) memory instead of O(M·N).
LinkResult streaming_nearest_link(const feature::FeatureMatrix& security,
                                  const feature::FeatureMatrix& wild,
                                  std::span<const double> weights,
                                  StreamingLinkStats* stats = nullptr);

/// Convenience: learn the max-abs weights (Section III-B.2) then link.
LinkResult streaming_nearest_link(const feature::FeatureMatrix& security,
                                  const feature::FeatureMatrix& wild,
                                  StreamingLinkStats* stats = nullptr);

}  // namespace patchdb::core
