// The feature space of Table I, plus the semantic and interprocedural
// extensions. The 60 syntactic dimensions are the representation the
// nearest link search, the ML baselines (Table III) and the Random
// Forest classifier (Table VI) all operate on.
//
// A patch becomes a row in exactly one way: extract(patch, space) for
// one patch, extract_all(patches, space) for a batch on the default
// pool. Both fill the row through the same code, so a batch row equals
// the single-patch row bitwise, and the first 60 (or 72) values of a
// wider space equal the narrower space's row.
//
// Each hunk side is lexed once. Its tokens are abstracted for dims 51-53
// and 55, and the tokens of all hunk sides, appended in hunk order, are
// counted for dims 10-45 and 47: the counts of the sides joined by '\n'.
// When a side ends open (lang::lex), the joined text is lexed whole
// instead, so the row is the same bits either way.
//
// Layout (0-based index -> Table I row):
//   0      #1    changed lines (added + removed)
//   1      #2    hunks
//   2-5    #3-6  added/removed/total/net lines
//   6-9    #7-10 added/removed/total/net characters
//   10-13  #11-14 added/removed/total/net if statements
//   14-17  #15-18 added/removed/total/net loops
//   18-21  #19-22 added/removed/total/net function calls
//   22-25  #23-26 added/removed/total/net arithmetic operators
//   26-29  #27-30 added/removed/total/net relational operators
//   30-33  #31-34 added/removed/total/net logical operators
//   34-37  #35-38 added/removed/total/net bitwise operators
//   38-41  #39-42 added/removed/total/net memory operators
//   42-45  #43-46 added/removed/total/net variables
//   46-47  #47-48 total/net modified functions
//   48-50  #49-51 mean/min/max Levenshtein distance within hunks (raw)
//   51-53  #52-54 mean/min/max Levenshtein distance within hunks (abstracted)
//   54     #55   same hunks before token abstraction
//   55     #56   same hunks after token abstraction
//   56-57  #57-58 # and share of affected files
//   58-59  #59-60 # and share of affected functions
//
// "total" = added + removed; "net" = added - removed (may be negative —
// the paper's max-abs weighting preserves sign, Section III-B.2).
//
// Features 57 and 59 are within-patch fractions, so a bare `.patch`
// file has the same row as the pipeline computes: 57 is the share of
// the patch's files that carry at least one hunk, 59 the touched
// functions per hunk. The paper's percentages of the whole repository
// would need repository totals, which no export records.
//
// FeatureSpace::kSemantic appends 12 dimensions computed by the
// src/analysis CFG + checker layer from the BEFORE -> AFTER diagnostic
// diff (see analysis/analyze.h):
//   60     diagnostics resolved by the patch (total)
//   61     diagnostics introduced by the patch (total)
//   62-68  per-checker net resolved (resolved - introduced), in CheckerId
//          order: unchecked-alloc, missing-bounds-check, use-after-free,
//          int-overflow-size, missing-null-guard, uninit-use, format-string
//   69-71  CFG shape deltas, AFTER minus BEFORE: basic blocks, edges,
//          cyclomatic complexity
//
// FeatureSpace::kInterproc appends 8 more dimensions on top of the 72,
// computed by the opt-in interprocedural engine (analysis/callgraph.h,
// analysis/summary.h). Dimensions 0-71 stay bit-identical to kSemantic:
//   72     diagnostics resolved under interprocedural analysis
//   73     diagnostics introduced under interprocedural analysis
//   74     interprocedural minus intraprocedural resolved count — the
//          cross-function defects only the summaries can see
//   75     same delta for introduced diagnostics
//   76     net resolved call-graph edges (AFTER minus BEFORE)
//   77-78  total fan-in / fan-out of the functions the patch changed
//   79     functions whose summary signature the patch changed
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "diff/patch.h"

namespace patchdb::feature {

inline constexpr std::size_t kFeatureCount = 60;
inline constexpr std::size_t kSemanticFeatureCount = 12;
inline constexpr std::size_t kExtendedFeatureCount =
    kFeatureCount + kSemanticFeatureCount;
inline constexpr std::size_t kInterprocFeatureCount = 8;
inline constexpr std::size_t kInterprocExtendedFeatureCount =
    kExtendedFeatureCount + kInterprocFeatureCount;

/// Which representation a pipeline stage runs on. kSyntactic is the
/// paper's Table I space and the default everywhere; kSemantic appends
/// the 12 analysis-derived dimensions, kInterproc a further 8 from the
/// call-graph + summary engine.
enum class FeatureSpace { kSyntactic, kSemantic, kInterproc };

constexpr std::size_t feature_dims(FeatureSpace space) noexcept {
  switch (space) {
    case FeatureSpace::kSyntactic: return kFeatureCount;
    case FeatureSpace::kSemantic: return kExtendedFeatureCount;
    case FeatureSpace::kInterproc: return kInterprocExtendedFeatureCount;
  }
  return kFeatureCount;
}

using FeatureVector = std::array<double, kFeatureCount>;

/// Human-readable names, index-aligned with the row of the space.
std::span<const std::string_view> feature_names(
    FeatureSpace space = FeatureSpace::kSyntactic);

/// The Table I row of one patch (the kSyntactic row as an array).
FeatureVector extract(const diff::Patch& patch);

/// The row of one patch in `space`: feature_dims(space) values.
std::vector<double> extract(const diff::Patch& patch, FeatureSpace space);

/// Row-major feature matrix for a set of patches. Width is fixed per
/// matrix (one FeatureSpace), chosen at construction.
class FeatureMatrix {
 public:
  FeatureMatrix() = default;
  explicit FeatureMatrix(std::size_t rows, std::size_t cols = kFeatureCount)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  void push_back(std::span<const double> row) {
    if (rows_ == 0 && data_.empty()) cols_ = row.size();
    data_.insert(data_.end(), row.begin(), row.end());
    ++rows_;
  }

  /// Keep the first `rows` rows in place and drop the rest (no-op when
  /// the matrix has no more than `rows`).
  void truncate(std::size_t rows) {
    if (rows >= rows_) return;
    rows_ = rows;
    data_.resize(rows * cols_);
  }

  void set_row(std::size_t i, std::span<const double> row) {
    std::copy(row.begin(), row.end(), data_.begin() + static_cast<std::ptrdiff_t>(i * cols_));
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  std::span<double> operator[](std::size_t i) noexcept {
    return {data_.data() + i * cols_, cols_};
  }
  std::span<const double> operator[](std::size_t i) const noexcept {
    return {data_.data() + i * cols_, cols_};
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = kFeatureCount;
  std::vector<double> data_;
};

/// The rows of many patches, in input order, extracted in parallel on
/// the default pool. Row i equals extract(*patches[i], space) bitwise.
FeatureMatrix extract_all(std::span<const diff::Patch* const> patches,
                          FeatureSpace space = FeatureSpace::kSyntactic);

}  // namespace patchdb::feature
