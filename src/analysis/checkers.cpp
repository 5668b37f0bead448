#include "analysis/checkers.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <utility>

#include "analysis/summary.h"
#include "lang/lexer.h"

namespace patchdb::analysis {

namespace {

constexpr CheckerInfo kCheckers[] = {
    {CheckerId::kUncheckedAlloc, "unchecked-alloc",
     "allocator result dereferenced before any null test"},
    {CheckerId::kMissingBoundsCheck, "missing-bounds-check",
     "unbounded copy, or index/size argument with no dominating bound check"},
    {CheckerId::kUseAfterFree, "use-after-free",
     "pointer used or re-freed after a free() on some path"},
    {CheckerId::kIntOverflowSize, "int-overflow-size",
     "unguarded arithmetic inside an allocation size argument"},
    {CheckerId::kMissingNullGuard, "missing-null-guard",
     "pointer parameter dereferenced before any null guard"},
    {CheckerId::kUninitUse, "uninit-use",
     "variable read while possibly uninitialized"},
    {CheckerId::kFormatString, "format-string",
     "non-literal format argument to a printf-family call"},
};

/// Size-argument position of the bounded copy routines.
int sized_copy_arg(std::string_view name) {
  if (name == "memcpy" || name == "memmove" || name == "memset" ||
      name == "strncpy" || name == "strncat" || name == "bcopy") {
    return 2;
  }
  return -1;
}

bool is_unbounded_copy(std::string_view name) {
  return name == "strcpy" || name == "strcat" || name == "gets" ||
         name == "sprintf" || name == "vsprintf" || name == "stpcpy";
}

/// Format-argument position of the printf family; -1 when not in it.
int format_arg(std::string_view name) {
  if (name == "printf" || name == "vprintf" || name == "printk") return 0;
  if (name == "fprintf" || name == "dprintf" || name == "sprintf" ||
      name == "vsprintf" || name == "syslog" || name == "vfprintf") {
    return 1;
  }
  if (name == "snprintf" || name == "vsnprintf") return 2;
  return -1;
}

struct ArgScan {
  std::vector<std::string> identifiers;
  bool has_sizeof = false;
  bool has_arith = false;  // * + << between operands
};

ArgScan scan_argument(const std::string& text) {
  ArgScan scan;
  const std::vector<lang::Token> toks = lang::lex(text);
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const lang::Token& t = toks[i];
    if (t.kind == lang::TokenKind::kIdentifier) {
      if (t.text == "sizeof") {
        scan.has_sizeof = true;
      } else if (i + 1 >= toks.size() || toks[i + 1].text != "(") {
        scan.identifiers.push_back(t.text);
      }
    } else if (t.kind == lang::TokenKind::kKeyword && t.text == "sizeof") {
      scan.has_sizeof = true;
    } else if (t.kind == lang::TokenKind::kOperator &&
               (t.text == "*" || t.text == "+" || t.text == "<<") && i > 0 &&
               i + 1 < toks.size()) {
      const auto operand = [](const lang::Token& tok) {
        return tok.kind == lang::TokenKind::kIdentifier ||
               tok.kind == lang::TokenKind::kNumber || tok.text == ")" ||
               tok.text == "(";
      };
      if (operand(toks[i - 1]) && operand(toks[i + 1])) scan.has_arith = true;
    }
  }
  return scan;
}

class CheckerRun {
 public:
  CheckerRun(const Cfg& cfg, const SummaryTable* summaries)
      : cfg_(cfg), summaries_(summaries) {}

  std::vector<Diagnostic> run(const DataflowResult& dataflow) {
    for (const BasicBlock& block : cfg_.blocks) {
      FlowState state = dataflow.entry[block.id];
      for (std::size_t s = 0; s < block.statements.size(); ++s) {
        const Statement& stmt = block.statements[s];
        const StatementFacts& facts = dataflow.facts[block.id][s];
        check_statement(stmt, facts, state);
        advance(state, facts);
      }
    }
    return std::move(diagnostics_);
  }

 private:
  void report(CheckerId checker, const Statement& stmt, const std::string& symbol,
              std::string message) {
    if (!seen_.insert({static_cast<int>(checker), symbol}).second) return;
    Diagnostic d;
    d.checker = checker;
    d.function = cfg_.function;
    d.line = stmt.line;
    d.symbol = symbol;
    d.message = std::move(message);
    diagnostics_.push_back(std::move(d));
  }

  void check_statement(const Statement& stmt, const StatementFacts& facts,
                       const FlowState& state) {
    // unchecked-alloc: dereference of a pointer still in the unchecked set.
    for (const std::string& v : facts.derefs) {
      if (state.unchecked_alloc.count(v)) {
        report(CheckerId::kUncheckedAlloc, stmt, v,
               "allocation result '" + v + "' dereferenced without a null check");
      }
    }

    // use-after-free: any read or re-free of a maybe-freed pointer.
    for (const std::string& v : facts.uses) {
      if (state.maybe_freed.count(v)) {
        report(CheckerId::kUseAfterFree, stmt, v, "'" + v + "' used after free");
      }
    }
    for (const std::string& v : facts.freed) {
      if (state.maybe_freed.count(v)) {
        report(CheckerId::kUseAfterFree, stmt, v, "double free of '" + v + "'");
      }
    }

    // missing-null-guard: dereference of a never-tested pointer parameter.
    for (const std::string& v : facts.derefs) {
      if (state.unguarded_params.count(v)) {
        report(CheckerId::kMissingNullGuard, stmt, v,
               "parameter '" + v + "' dereferenced without a null guard");
      }
    }

    // uninit-use: read of a possibly-uninitialized variable.
    for (const std::string& v : facts.uses) {
      if (state.maybe_uninit.count(v)) {
        report(CheckerId::kUninitUse, stmt, v,
               "'" + v + "' may be used uninitialized");
      }
    }

    // missing-bounds-check (a): index variables with no dominating bound.
    for (const std::string& v : facts.index_vars) {
      if (!state.bound_guarded.count(v)) {
        report(CheckerId::kMissingBoundsCheck, stmt, v,
               "index '" + v + "' used without a bounds check");
      }
    }

    // call-shaped checks.
    for (std::size_t c = 0; c < facts.calls.size(); ++c) {
      const std::string& callee = facts.calls[c];
      const std::vector<std::string>& args = facts.call_args[c];

      // missing-bounds-check (b): inherently unbounded copies.
      if (is_unbounded_copy(callee)) {
        report(CheckerId::kMissingBoundsCheck, stmt, callee,
               "unbounded '" + callee + "' call");
      }

      // missing-bounds-check (c): size argument of a bounded copy that is
      // a plain variable never compared against anything.
      const int size_pos = sized_copy_arg(callee);
      if (size_pos >= 0 && static_cast<std::size_t>(size_pos) < args.size()) {
        const ArgScan scan = scan_argument(args[static_cast<std::size_t>(size_pos)]);
        if (!scan.has_sizeof) {
          for (const std::string& id : scan.identifiers) {
            if (!state.bound_guarded.count(id)) {
              report(CheckerId::kMissingBoundsCheck, stmt, id,
                     "size argument '" + id + "' of '" + callee +
                         "' not bounds-checked");
              break;
            }
          }
        }
      }

      // int-overflow-size: arithmetic in an allocation size argument with
      // at least one unguarded variable operand.
      const int alloc_pos = alloc_size_arg(callee);
      if (alloc_pos >= 0 && static_cast<std::size_t>(alloc_pos) < args.size()) {
        const ArgScan scan = scan_argument(args[static_cast<std::size_t>(alloc_pos)]);
        if (scan.has_arith && !scan.identifiers.empty()) {
          const bool all_guarded = std::all_of(
              scan.identifiers.begin(), scan.identifiers.end(),
              [&](const std::string& id) { return state.bound_guarded.count(id) > 0; });
          if (!all_guarded) {
            report(CheckerId::kIntOverflowSize, stmt, scan.identifiers.front(),
                   "possible integer overflow in size passed to '" + callee + "'");
          }
        }
      }

      // format-string: a variable where a format literal belongs.
      const int fmt_pos = format_arg(callee);
      if (fmt_pos >= 0 && static_cast<std::size_t>(fmt_pos) < args.size()) {
        const std::vector<lang::Token> fmt =
            lang::lex(args[static_cast<std::size_t>(fmt_pos)]);
        if (!fmt.empty() && fmt.front().kind == lang::TokenKind::kIdentifier) {
          report(CheckerId::kFormatString, stmt, fmt.front().text,
                 "non-literal format string '" + fmt.front().text + "' passed to '" +
                     callee + "'");
        }
      }

      // Interprocedural checks: effects the callee's summary exposes.
      if (summaries_ != nullptr) check_call_summary(stmt, state, callee, args);
    }
  }

  /// Summary-mediated findings at one call site: the callee dereferences
  /// or sizes an allocation with what we hand it. (Frees performed by
  /// callees need no check here — augmented facts feed them through the
  /// regular use-after-free logic.)
  void check_call_summary(const Statement& stmt, const FlowState& state,
                          const std::string& callee,
                          const std::vector<std::string>& args) {
    const FunctionSummary* g = summaries_->find(callee);
    if (g == nullptr) return;
    const std::size_t argc = std::min(args.size(), g->param_flags.size());
    for (std::size_t j = 0; j < argc; ++j) {
      const ParamSummary& effect = g->param_flags[j];
      if (!effect.deref_unguarded && !effect.alloc_size_unguarded) continue;
      const ArgScan scan = scan_argument(args[j]);
      if (scan.identifiers.empty()) continue;
      const std::string& base = scan.identifiers.front();

      if (effect.deref_unguarded) {
        if (state.unguarded_params.count(base)) {
          report(CheckerId::kMissingNullGuard, stmt, base,
                 "parameter '" + base + "' passed to '" + callee +
                     "', which dereferences it without a null guard");
        }
        if (state.unchecked_alloc.count(base)) {
          report(CheckerId::kUncheckedAlloc, stmt, base,
                 "allocation result '" + base + "' passed to '" + callee +
                     "', which dereferences it without a null check");
        }
      }

      if (effect.alloc_size_unguarded && scan.has_arith) {
        const bool all_guarded = std::all_of(
            scan.identifiers.begin(), scan.identifiers.end(),
            [&](const std::string& id) { return state.bound_guarded.count(id) > 0; });
        if (!all_guarded) {
          report(CheckerId::kIntOverflowSize, stmt, base,
                 "possible integer overflow in size passed to allocation "
                 "wrapper '" + callee + "'");
        }
      }
    }
  }

  const Cfg& cfg_;
  const SummaryTable* summaries_ = nullptr;
  std::set<std::pair<int, std::string>> seen_;
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace

std::span<const CheckerInfo> checkers() { return kCheckers; }

std::string_view checker_name(CheckerId id) {
  return kCheckers[static_cast<std::size_t>(id)].name;
}

std::string Diagnostic::key() const {
  std::string key(checker_name(checker));
  key += '|';
  key += function;
  key += '|';
  key += symbol;
  return key;
}

std::vector<Diagnostic> run_checkers(const Cfg& cfg, const DataflowResult& dataflow,
                                     const SummaryTable* summaries) {
  CheckerRun run(cfg, summaries);
  return run.run(dataflow);
}

std::vector<Diagnostic> run_checkers(const Cfg& cfg) {
  return run_checkers(cfg, solve_dataflow(cfg, facts_for(cfg)));
}

}  // namespace patchdb::analysis
