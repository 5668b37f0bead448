// Phase-1 candidate retrieval for the two-phase nearest-link engine
// (ROADMAP item 2, PatchFinder-style approximate-then-verify).
//
// An Index partitions the wild pool's scaled feature columns at build
// time and, per query row, shortlists the partitions that could contain
// the row's nearest neighbors. The streaming engine then runs the exact
// blocked kernel only over the shortlisted partitions; everything else
// is *pending*. The contract that keeps the final LinkResult bitwise
// identical to the dense path is not recall — it is the pending bound:
//
//   shortlist() returns pending_lb, a conservative lower bound on the
//   float-kernel distance (core::l2_cell on the same scaled inputs)
//   from the query to EVERY column it did not shortlist.
//
// Whenever a cached candidate distance d satisfies d < pending_lb
// strictly, no pending column can beat or tie it, so the engine may
// serve the candidate without ever scoring the pending set. Whenever
// the bound cannot prove the choice, the engine re-scans the full row
// through the existing exact fallback path. Approximation quality
// therefore moves the probe/rescan counters and the wall clock, never
// the result (DESIGN.md §3i has the full argument).
//
// Shortlists are expressed as contiguous ranges over ordering(), a
// permutation of the column ids that groups each partition into one
// run. Contiguity is what makes phase 1 cheap: the engine streams the
// pool in permuted order and skips whole kLinkGroupCols SIMD groups
// with one mask bit, instead of testing columns one by one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace patchdb::core {

enum class IndexKind {
  kExact,   // passthrough: every column shortlisted, nothing pending
  kCoarse,  // k-means coarse quantizer: probe clusters by centroid bound
};

std::string_view index_kind_name(IndexKind kind) noexcept;

/// Parse "exact" / "coarse". Throws std::invalid_argument on anything
/// else (strict, like the numeric CLI flags).
IndexKind parse_index_kind(std::string_view name);

struct IndexConfig {
  IndexKind kind = IndexKind::kExact;

  /// Clusters probed per query row (kCoarse; ignored by kExact).
  /// Probing continues past nprobe only until the shortlist reaches the
  /// requested candidate count. More probes mean larger shortlists and
  /// a tighter pending bound — the recall-vs-speed knob. Must be >= 1
  /// for kCoarse.
  std::size_t nprobe = 8;

  /// kCoarse: cluster count. 0 = automatic (~sqrt(n), capped so the
  /// one-off assignment pass stays well under one exact phase-1 sweep).
  std::size_t clusters = 0;
};

/// What one shortlist() call covered and what it proved about the rest.
struct IndexShortlist {
  /// Conservative lower bound on the float-kernel distance from the
  /// query to ANY column outside the returned ranges. +infinity when
  /// the ranges cover the whole pool.
  double pending_lb = std::numeric_limits<double>::infinity();
  /// Partitions inspected while assembling the ranges.
  std::size_t probes = 0;
  /// Total columns covered by the returned ranges.
  std::size_t cols = 0;
};

/// Conservative relative margin applied to pending bounds before they
/// are compared against float-kernel distances: covers the kernel's
/// sequential float accumulation error (~(dims+2) ulps relative) and
/// the double-precision geometry on the bound side, with 4x headroom —
/// the same construction as the streaming engine's norm screen.
inline double index_pending_margin(std::size_t dims) noexcept {
  return 4.0 * static_cast<double>(dims + 2) * 0x1p-24 + 1e-7;
}

class Index {
 public:
  virtual ~Index() = default;

  virtual IndexKind kind() const noexcept = 0;

  /// Build over `n` scaled feature columns (row-major, column c at
  /// cols + c * dims — the output of core::scale_features). The data
  /// must stay alive while shortlist() is in use.
  virtual void build(const float* cols, std::size_t n, std::size_t dims) = 0;

  /// Permutation of [0, n): column ids grouped so every partition is
  /// one contiguous run. shortlist() ranges index into this order.
  virtual std::span<const std::uint32_t> ordering() const noexcept = 0;

  /// Append [begin, end) position ranges (into ordering()) covering the
  /// query's most promising partitions — at least min(k, n) columns
  /// when the pool allows — and report the pending bound. Thread-safe
  /// after build(); deterministic for fixed build inputs.
  virtual IndexShortlist shortlist(
      const float* query, std::size_t k,
      std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges) const = 0;
};

/// Construct the backend `config.kind` names. Throws
/// std::invalid_argument when nprobe == 0 for kCoarse.
std::unique_ptr<Index> make_index(const IndexConfig& config);

}  // namespace patchdb::core
