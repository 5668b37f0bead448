// Direct-call graph over the functions of one analyzed fragment. This
// is the interprocedural spine: nodes are the CFGs build_cfgs produced,
// edges are call sites whose callee is defined in the same fragment
// (calls that leave the fragment are counted as unresolved, never an
// error — hunk slices routinely reference functions outside the diff).
// The graph is condensed into strongly connected components so the
// summary fixpoint (summary.h) can run bottom-up even over recursive
// and mutually recursive functions. Like the CFG layer, construction is
// total: any input yields a (possibly edgeless) graph.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/dataflow.h"

namespace patchdb::analysis {

struct CallGraphNode {
  std::string name;
  std::size_t fan_in = 0;   // distinct in-fragment callers
  std::size_t fan_out = 0;  // distinct in-fragment callees
  std::size_t scc = 0;      // condensation component id
};

struct CallGraph {
  /// Aligned with the `cfgs` span the graph was built from.
  std::vector<CallGraphNode> nodes;
  /// Deduplicated direct-call adjacency (caller -> callees).
  std::vector<std::vector<std::size_t>> succs;
  std::vector<std::vector<std::size_t>> preds;
  std::size_t call_sites = 0;        // resolved call sites (with repeats)
  std::size_t unresolved_calls = 0;  // callee not defined in the fragment
  /// Condensation: members of each SCC, listed bottom-up — every SCC
  /// appears before any SCC that calls into it, so a single left-to-right
  /// sweep sees callee summaries before their callers.
  std::vector<std::vector<std::size_t>> sccs;

  std::size_t edge_count() const noexcept;
  std::size_t recursive_scc_count() const noexcept;  // self-loops count too
  /// Node index of a function name; npos when not defined here.
  std::size_t index_of(std::string_view name) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// First-definition-wins name table (duplicate names keep the first).
  std::unordered_map<std::string, std::size_t> by_name;
};

/// Build the graph from CFGs plus their statement facts (`facts` holds
/// facts_for(cfgs[i]) at position i); the facts carry every call site.
CallGraph build_call_graph(const std::vector<Cfg>& cfgs,
                           const std::vector<FunctionFacts>& facts);

}  // namespace patchdb::analysis
