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

namespace patchdb::core {

struct CategorizeOptions {
  /// Run the checker tie-break with the interprocedural engine
  /// (analysis/callgraph.h, analysis/summary.h) so cross-function fixes
  /// — a guard added inside a callee, a wrapper-free use-after-free —
  /// count as checker evidence. Off by default: the default categorize()
  /// stays bit-identical to the intraprocedural cascade.
  bool interproc = false;
};

/// Classify a patch's code change into a Table V category. When the
/// syntactic rule cascade is inconclusive (would fall through to
/// kOther), the CFG-based checkers break the tie: a patch whose AFTER
/// version resolves e.g. a missing-null-guard diagnostic is classified
/// as an added null check even if the guard's text eluded the line
/// rules.
corpus::PatchType categorize(const diff::Patch& patch);
corpus::PatchType categorize(const diff::Patch& patch,
                             const CategorizeOptions& options);

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
