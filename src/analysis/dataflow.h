// Dataflow over the CFG: per-statement def/use fact extraction plus the
// one forward fixpoint the checkers and summaries consume. All facts are
// variable names (strings) — the same level of abstraction the paper's
// 60 features work at, but now path-aware: "x was freed and not
// reassigned on some path reaching this use", "p was never null-tested
// before this dereference", and so on.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/cfg.h"

namespace patchdb::analysis {

using FactSet = std::set<std::string>;

/// Security-relevant facts of one statement, recovered from its tokens.
struct StatementFacts {
  FactSet defs;          // variables assigned (=, compound assign, ++/--)
  FactSet uses;          // identifiers read (excludes call names and decl types)
  FactSet decls;         // variables declared here
  FactSet decls_uninit;  // declared without an initializer
  FactSet derefs;        // *p, p->f, p[i] dereference the pointer p
  FactSet index_vars;    // buf[i]: the index expression's variables (i)
  FactSet freed;         // arguments of free-like calls
  FactSet alloc_defs;    // x = malloc/kmalloc/strdup/... : x
  FactSet addr_taken;    // &x (x may be initialized through the pointer)
  FactSet null_tested;   // condition: x == NULL, !x, if (x), assert(x)
  FactSet bound_tested;  // condition: x < n, n >= len, ... (both sides)
  std::vector<std::string> calls;  // called function names, in order
  /// Single-spaced text of each argument of each call, aligned with `calls`.
  std::vector<std::vector<std::string>> call_args;
};

StatementFacts facts_for(const Statement& stmt);

/// Facts of every statement of one function: facts[block][statement],
/// aligned with cfg.blocks[b].statements.
using FunctionFacts = std::vector<std::vector<StatementFacts>>;

FunctionFacts facts_for(const Cfg& cfg);

/// The five forward may-analyses as the state before one statement. Each
/// set joins by union where paths merge, and advance() is the one
/// transfer function: the solver, the checkers and the summaries all step
/// the state through it.
struct FlowState {
  FactSet maybe_uninit;      // declared, no assignment yet on some path
  FactSet maybe_freed;       // freed, not reassigned, on some path
  FactSet unchecked_alloc;   // allocation result never null-tested yet
  FactSet unguarded_params;  // pointer params with no null test yet
  FactSet bound_guarded;     // vars constrained by a relational condition
};

void advance(FlowState& state, const StatementFacts& facts);

/// Everything the checkers need for one function.
struct DataflowResult {
  /// The facts the flows were solved over, aligned with cfg.blocks.
  FunctionFacts facts;
  /// The state at each block's entry (index = block id). Replaying a
  /// block's facts through advance() gives the state before each of its
  /// statements.
  std::vector<FlowState> entry;
};

struct SummaryTable;  // summary.h

/// Solve the flows of one function over `facts` (facts_for(cfg)). With a
/// summary table, every statement first takes the callee effects the
/// table records (augment_facts), and the result holds those augmented
/// facts, so a checker's block replay sees what the solver saw.
DataflowResult solve_dataflow(const Cfg& cfg, FunctionFacts facts,
                              const SummaryTable* summaries = nullptr);

/// Vocabulary shared by the fact extractor, the checkers, and the
/// interprocedural summary pass.
bool is_allocator(std::string_view name);
bool is_deallocator(std::string_view name);

/// Allocation-size argument position of a raw allocator; -1 when `name`
/// is not one (calloc is excluded: its two-argument form is the fix).
int alloc_size_arg(std::string_view name);

}  // namespace patchdb::analysis
