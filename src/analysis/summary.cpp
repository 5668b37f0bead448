#include "analysis/summary.h"

#include <algorithm>

#include "lang/lexer.h"
#include "lang/taxonomy.h"
#include "obs/metrics.h"

namespace patchdb::analysis {

namespace {

/// Bits monotonically accumulate, so |params| * 3 + 1 sweeps suffice in
/// theory; the cap only guards against a future non-monotone edit.
constexpr std::size_t kMaxSweeps = 16;

/// Base identifier of an argument expression ("buf" in "buf + off",
/// "p" in "& p -> field"); empty when the argument has none.
std::string base_identifier(const std::string& arg) {
  for (const lang::Token& t : lang::lex(arg)) {
    if (t.kind == lang::TokenKind::kIdentifier && !lang::is_keyword(t.text)) {
      return t.text;
    }
  }
  return {};
}

/// Every non-call identifier of an argument expression.
std::vector<std::string> argument_identifiers(const std::string& arg) {
  std::vector<std::string> out;
  const std::vector<lang::Token> toks = lang::lex(arg);
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const lang::Token& t = toks[i];
    if (t.kind != lang::TokenKind::kIdentifier || lang::is_keyword(t.text)) {
      continue;
    }
    if (t.text == "sizeof") continue;
    if (i + 1 < toks.size() && toks[i + 1].text == "(") continue;  // call name
    out.push_back(t.text);
  }
  return out;
}

/// One bottom-up sweep over a single function: derive its summary from
/// the (summary-augmented) dataflow and the current table.
FunctionSummary summarize_function(const Cfg& cfg, const FunctionFacts& facts,
                                   const SummaryTable& table) {
  FunctionSummary out;
  out.params = cfg.params;
  out.param_flags.resize(cfg.params.size());

  const DataflowResult dataflow = solve_dataflow(cfg, facts, &table);

  // Flow-insensitive set of variables that ever hold a fresh allocation;
  // `p = my_malloc(n); if (!p) return NULL; return p;` must still mark
  // the wrapper as allocation-returning even though the final return is
  // dominated by a null test.
  FactSet alloc_vars;
  for (const std::vector<StatementFacts>& block : dataflow.facts) {
    for (const StatementFacts& facts : block) {
      alloc_vars.insert(facts.alloc_defs.begin(), facts.alloc_defs.end());
    }
  }

  for (const BasicBlock& block : cfg.blocks) {
    FlowState state = dataflow.entry[block.id];
    for (std::size_t s = 0; s < block.statements.size(); ++s) {
      const Statement& stmt = block.statements[s];
      const StatementFacts& facts = dataflow.facts[block.id][s];

      for (std::size_t k = 0; k < out.params.size(); ++k) {
        const std::string& p = out.params[k];
        if (facts.derefs.count(p) && state.unguarded_params.count(p)) {
          out.param_flags[k].deref_unguarded = true;
        }
        // Augmented facts already fold callee frees into `freed`.
        if (facts.freed.count(p)) out.param_flags[k].freed = true;
      }

      for (std::size_t c = 0; c < facts.calls.size(); ++c) {
        const std::string& callee = facts.calls[c];
        const std::vector<std::string>& args = facts.call_args[c];

        // Raw allocator: unguarded identifiers in the size argument.
        const int pos = alloc_size_arg(callee);
        if (pos >= 0 && static_cast<std::size_t>(pos) < args.size()) {
          for (const std::string& id :
               argument_identifiers(args[static_cast<std::size_t>(pos)])) {
            const std::size_t k = out.param_index(id);
            if (k != FunctionSummary::npos && !state.bound_guarded.count(id)) {
              out.param_flags[k].alloc_size_unguarded = true;
            }
          }
        }

        const FunctionSummary* g = table.find(callee);
        if (g == nullptr) continue;
        const std::size_t argc = std::min(args.size(), g->param_flags.size());
        for (std::size_t j = 0; j < argc; ++j) {
          const ParamSummary& effect = g->param_flags[j];
          if (effect.deref_unguarded) {
            const std::size_t k = out.param_index(base_identifier(args[j]));
            if (k != FunctionSummary::npos &&
                state.unguarded_params.count(out.params[k])) {
              out.param_flags[k].deref_unguarded = true;
            }
          }
          if (effect.alloc_size_unguarded) {
            for (const std::string& id : argument_identifiers(args[j])) {
              const std::size_t k = out.param_index(id);
              if (k != FunctionSummary::npos && !state.bound_guarded.count(id)) {
                out.param_flags[k].alloc_size_unguarded = true;
              }
            }
          }
        }
      }

      // Fresh-allocation returns: `return malloc(n)`, `return wrapper(n)`,
      // or `return p` where p ever held a fresh allocation.
      if (!stmt.tokens.empty() && stmt.tokens.front().text == "return") {
        for (const std::string& callee : facts.calls) {
          if (is_allocator(callee)) out.returns_fresh_alloc = true;
          const FunctionSummary* g = table.find(callee);
          if (g != nullptr && g->returns_fresh_alloc) {
            out.returns_fresh_alloc = true;
          }
        }
        if (stmt.tokens.size() >= 2 &&
            stmt.tokens[1].kind == lang::TokenKind::kIdentifier &&
            alloc_vars.count(stmt.tokens[1].text)) {
          out.returns_fresh_alloc = true;
        }
      }

      advance(state, facts);
    }
  }
  return out;
}

}  // namespace

std::size_t FunctionSummary::param_index(std::string_view name) const {
  if (name.empty()) return npos;
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i] == name) return i;
  }
  return npos;
}

bool FunctionSummary::flagged() const {
  if (returns_fresh_alloc) return true;
  return std::any_of(param_flags.begin(), param_flags.end(),
                     [](const ParamSummary& p) { return p.any(); });
}

std::string FunctionSummary::signature() const {
  std::string out;
  if (returns_fresh_alloc) out += "ret=alloc";
  for (std::size_t i = 0; i < param_flags.size(); ++i) {
    const ParamSummary& p = param_flags[i];
    if (!p.any()) continue;
    if (!out.empty()) out += ' ';
    out += 'p';
    out += std::to_string(i);
    out += '=';
    if (p.deref_unguarded) out += "DU";
    if (p.freed) out += 'F';
    if (p.alloc_size_unguarded) out += 'S';
  }
  return out;
}

const FunctionSummary* SummaryTable::find(std::string_view name) const {
  const auto it = by_function.find(std::string(name));
  return it == by_function.end() ? nullptr : &it->second;
}

std::size_t SummaryTable::flagged_count() const {
  std::size_t count = 0;
  for (const auto& [name, summary] : by_function) count += summary.flagged();
  return count;
}

void augment_facts(StatementFacts& facts, const SummaryTable& table) {
  bool calls_fresh_alloc = false;
  for (std::size_t c = 0; c < facts.calls.size(); ++c) {
    const FunctionSummary* g = table.find(facts.calls[c]);
    if (g == nullptr) continue;
    if (g->returns_fresh_alloc) calls_fresh_alloc = true;
    const std::vector<std::string>& args = facts.call_args[c];
    const std::size_t argc = std::min(args.size(), g->param_flags.size());
    for (std::size_t j = 0; j < argc; ++j) {
      if (!g->param_flags[j].freed) continue;
      const std::string base = base_identifier(args[j]);
      if (!base.empty()) facts.freed.insert(base);
    }
  }
  if (calls_fresh_alloc) {
    // Mirror the direct-allocator rule in facts_for: the assigned (or
    // declared-and-initialized) variables now hold a fresh allocation.
    for (const std::string& d : facts.defs) facts.alloc_defs.insert(d);
    for (const std::string& d : facts.decls) {
      if (facts.defs.count(d)) facts.alloc_defs.insert(d);
    }
  }
}

SummaryTable compute_summaries(const std::vector<Cfg>& cfgs,
                               const std::vector<FunctionFacts>& facts,
                               const CallGraph& graph) {
  SummaryTable table;
  for (const Cfg& cfg : cfgs) {
    FunctionSummary seed;
    seed.params = cfg.params;
    seed.param_flags.resize(cfg.params.size());
    table.by_function.try_emplace(cfg.function, std::move(seed));
  }

  // Bottom-up over the condensation: callee SCCs are already final when
  // a caller SCC starts, so only intra-SCC recursion needs iteration.
  for (const std::vector<std::size_t>& scc : graph.sccs) {
    bool changed = true;
    std::size_t sweeps = 0;
    while (changed && sweeps < kMaxSweeps) {
      changed = false;
      ++sweeps;
      ++table.iterations;
      for (std::size_t v : scc) {
        if (v >= cfgs.size()) continue;
        const Cfg& cfg = cfgs[v];
        // Duplicate names share one slot (first definition wins, matching
        // the call graph's name table); only that definition is swept.
        if (graph.index_of(cfg.function) != v) continue;
        FunctionSummary next = summarize_function(cfg, facts[v], table);
        FunctionSummary& current = table.by_function[cfg.function];
        if (next != current) {
          current = std::move(next);
          changed = true;
        }
      }
    }
  }

  PATCHDB_COUNTER_ADD("analysis.interproc.summary_iterations", table.iterations);
  PATCHDB_COUNTER_ADD("analysis.interproc.flagged_summaries",
                      table.flagged_count());
  return table;
}

}  // namespace patchdb::analysis
