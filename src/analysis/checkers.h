// Rule-based security checkers over the CFG + dataflow facts. Each
// checker encodes one of the recurring C vulnerability shapes behind the
// Table V fix patterns; running them on the BEFORE and AFTER version of
// a patched file and diffing the two diagnostic sets (analyze.h) turns
// "this patch added a bound check" from a syntactic guess into a
// semantic observation.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/dataflow.h"

namespace patchdb::analysis {

enum class CheckerId : int {
  kUncheckedAlloc = 0,   // allocator result dereferenced before a null test
  kMissingBoundsCheck,   // unbounded copy, or unguarded index / size arg
  kUseAfterFree,         // freed pointer used (or freed again) on some path
  kIntOverflowSize,      // unguarded arithmetic inside an allocation size
  kMissingNullGuard,     // pointer parameter dereferenced with no null test
  kUninitUse,            // variable read while possibly uninitialized
  kFormatString,         // non-literal format argument to a printf-family call
};

inline constexpr std::size_t kCheckerCount = 7;

struct CheckerInfo {
  CheckerId id;
  std::string_view name;         // stable short tag (diff keys, CLI output)
  std::string_view description;
};

std::span<const CheckerInfo> checkers();
std::string_view checker_name(CheckerId id);

struct Diagnostic {
  CheckerId checker = CheckerId::kUncheckedAlloc;
  std::string function;  // enclosing function (or "<fragment>")
  std::size_t line = 0;  // line within the analyzed fragment
  std::string symbol;    // variable or callee the finding anchors to
  std::string message;

  /// Version-stable identity: matching a BEFORE diagnostic to an AFTER
  /// one must ignore line numbers (the patch shifts them).
  std::string key() const;
};

struct SummaryTable;  // summary.h

/// Run every registered checker on one function. Diagnostics are deduped
/// per (checker, symbol): the first offending statement wins.
std::vector<Diagnostic> run_checkers(const Cfg& cfg);

/// Run the checkers over a solved dataflow. With a summary table they
/// additionally see through call boundaries — an unguarded pointer
/// handed to a callee that dereferences its parameter, frees performed
/// by wrapper functions, and allocation wrappers' size arguments.
/// `dataflow` must have been solved against the same table
/// (solve_dataflow(cfg, facts, summaries)) so wrapper effects are present
/// in the replayed facts. A null table is the intraprocedural run.
std::vector<Diagnostic> run_checkers(const Cfg& cfg, const DataflowResult& dataflow,
                                     const SummaryTable* summaries = nullptr);

}  // namespace patchdb::analysis
