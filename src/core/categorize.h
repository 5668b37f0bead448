// Rule-based patch-pattern categorizer: assigns a security patch to one
// of the 12 Table V code-change categories by inspecting its hunks. The
// paper did this step manually over 5K patches; the rules below encode
// the same decision procedure (checks first, then declaration/value
// changes, call changes, jumps, moves, and finally the size-based
// redesign catch-all), so the composition study (Table V, Fig. 6) can
// run over arbitrarily large sets.
#pragma once

#include <array>
#include <cstddef>

#include "corpus/taxonomy.h"
#include "diff/patch.h"

namespace patchdb::analysis {
struct PatchAnalysis;
}

namespace patchdb::core {

/// Classify a patch's code change into a Table V category. When the
/// syntactic rule cascade is inconclusive (would fall through to
/// kOther), the CFG-based checkers break the tie: a patch whose AFTER
/// version resolves e.g. a missing-null-guard diagnostic is classified
/// as an added null check even if the guard's text eluded the line
/// rules. This overload analyzes the patch intraprocedurally, and only
/// when the cascade needs the tie-break.
corpus::PatchType categorize(const diff::Patch& patch);

/// The same cascade, breaking ties with `analysis`, the caller's own
/// analysis::analyze_patch result for `patch` — say an interprocedural
/// one, so cross-function fixes (a guard added inside a callee, a
/// wrapper-free use-after-free) count as checker evidence. The patch is
/// not analyzed again.
corpus::PatchType categorize(const diff::Patch& patch,
                             const analysis::PatchAnalysis& analysis);

/// Table V composition of labeled security patches: per security type
/// the ground-truth count and the categorizer's count, and how often
/// the two agree. `patchdb stats` and patchdbd's stats op both tally
/// through it.
struct CompositionTally {
  std::array<std::size_t, corpus::kSecurityTypeCount> labeled{};
  std::array<std::size_t, corpus::kSecurityTypeCount> predicted{};
  std::size_t total = 0;      // security patches tallied
  std::size_t agreement = 0;  // categorize(patch) == label

  /// Categorize and count one patch; a non-security label is skipped.
  void add(const diff::Patch& patch, corpus::PatchType label);
};

}  // namespace patchdb::core
