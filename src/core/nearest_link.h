// Nearest link search (Algorithm 1 of the paper) over a materialized
// distance matrix, plus two comparators: an exact rectangular
// assignment solver (Jonker-Volgenant style shortest augmenting paths)
// for ablating the greedy approximation, and plain per-row nearest
// neighbor (KNN, K=1 with reuse allowed) to demonstrate why nearest
// link is not KNN (Section III-B.3).
//
// This dense pair (distance_matrix + nearest_link_search) is not a
// production path. The pipeline's one link path is
// streaming_nearest_link (core/streaming_link.h), which returns the
// same LinkResult bit for bit without holding the M x N matrix. The functions here remain as
// the tests' oracle, for the ablation arms that need the whole matrix
// (bench/ablation_nearest_link §1 and §4), and for micro_core's dense
// arms and --link-check.
#pragma once

#include <cstddef>
#include <vector>

#include "core/distance.h"

namespace patchdb::core {

struct LinkResult {
  /// candidate[m] = wild index linked to security patch m.
  std::vector<std::size_t> candidate;
  double total_distance = 0.0;
};

/// Algorithm 1: greedy global-minimum link assignment. Every security
/// patch gets one distinct wild candidate; requires cols >= rows.
LinkResult nearest_link_search(const DistanceMatrix& d);

/// Exact minimum-cost rectangular assignment (one distinct column per
/// row). O(rows^2 * cols) time — use at ablation scale.
LinkResult exact_assignment(const DistanceMatrix& d);

/// Per-row argmin with reuse allowed (the KNN contrast: one candidate may
/// serve many rows, so the candidate set can be much smaller than M).
LinkResult row_argmin(const DistanceMatrix& d);

}  // namespace patchdb::core

#include "core/streaming_link.h"  // IWYU pragma: export
