// Per-function security summaries, computed bottom-up over the SCC
// condensation of the call graph to a fixpoint. A summary abstracts the
// callee-visible behaviour the checkers care about: which parameters the
// function dereferences without a dominating null test, which it frees
// (directly or through another freeing callee), which flow unguarded
// into an allocation size, and whether its return value is a fresh
// (possibly-null) allocation. Summaries let every intraprocedural
// checker see through one or more call boundaries: `my_free(p)` taints
// `p` exactly like `free(p)`, `my_malloc(n * m)` is scrutinized like
// `malloc(n * m)`, and passing an unchecked pointer to a callee that
// dereferences its parameter is reported at the call site.
//
// All summary bits are monotone (they only flip from clear to set as the
// table grows), so the per-SCC iteration terminates; a generous cap
// bounds it anyway. Like every layer below it, computation is total:
// degenerate fragments and calls to unknown functions yield empty or
// partial summaries, never an error.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/cfg.h"
#include "analysis/dataflow.h"

namespace patchdb::analysis {

struct ParamSummary {
  bool deref_unguarded = false;     // dereferenced with no dominating null test
  bool freed = false;               // reaches a deallocator (possibly via callees)
  bool alloc_size_unguarded = false;  // flows into an allocation size unguarded

  bool any() const noexcept {
    return deref_unguarded || freed || alloc_size_unguarded;
  }
  bool operator==(const ParamSummary&) const = default;
};

struct FunctionSummary {
  std::vector<std::string> params;        // names, in signature order
  std::vector<ParamSummary> param_flags;  // aligned with `params`
  bool returns_fresh_alloc = false;

  /// Index of a parameter name; npos when the name is not a parameter.
  std::size_t param_index(std::string_view name) const;
  bool flagged() const;  // any param flag set, or a fresh-alloc return

  /// Compact stable encoding ("ret=alloc p0=DU p2=F") used to diff the
  /// BEFORE and AFTER summary of a function across a patch.
  std::string signature() const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  bool operator==(const FunctionSummary&) const = default;
};

struct SummaryTable {
  std::unordered_map<std::string, FunctionSummary> by_function;
  std::size_t iterations = 0;  // fixpoint sweeps, summed over SCCs

  const FunctionSummary* find(std::string_view name) const;
  std::size_t flagged_count() const;
};

/// Compute the table for a fragment's functions, bottom-up over the
/// condensed call graph. `facts` holds facts_for(cfgs[i]) at position i,
/// and the graph was built from the same slice.
SummaryTable compute_summaries(const std::vector<Cfg>& cfgs,
                               const std::vector<FunctionFacts>& facts,
                               const CallGraph& graph);

/// Apply the table's callee effects to one statement's facts: the base
/// identifier of an argument passed to a freeing parameter joins
/// `freed`, and an assignment whose RHS calls a fresh-allocation wrapper
/// marks its definitions as allocation results — so the existing
/// gen/kill transfers and checkers see through wrappers unchanged.
void augment_facts(StatementFacts& facts, const SummaryTable& table);

}  // namespace patchdb::analysis
