#include "analysis/dataflow.h"

#include <algorithm>
#include <deque>
#include <string_view>
#include <utility>

#include "analysis/summary.h"
#include "lang/lexer.h"
#include "lang/taxonomy.h"

namespace patchdb::analysis {

namespace {

bool is_assert_fn(std::string_view name) {
  static constexpr std::string_view kAssert[] = {
      "assert", "ASSERT", "BUG_ON", "WARN_ON", "CHECK", "g_assert",
  };
  return std::find(std::begin(kAssert), std::end(kAssert), name) != std::end(kAssert);
}

bool is_relational(std::string_view op) {
  return op == "<" || op == ">" || op == "<=" || op == ">=";
}

bool is_null_literal(std::string_view text) {
  return text == "NULL" || text == "nullptr" || text == "0";
}

/// True when the token before index `i` puts a prefix operator ('*', '&',
/// '!') in unary position.
bool unary_position(const std::vector<lang::Token>& toks, std::size_t i) {
  if (i == 0) return true;
  const lang::Token& prev = toks[i - 1];
  if (prev.kind == lang::TokenKind::kOperator) return true;
  if (prev.kind == lang::TokenKind::kKeyword) return prev.text == "return";
  return prev.text == "(" || prev.text == "," || prev.text == ";" ||
         prev.text == "[" || prev.text == "{";
}

constexpr std::string_view kDeclKeywords[] = {
    "int",   "char",   "long",     "short",  "float", "double", "bool",
    "void",  "unsigned", "signed", "struct", "union", "enum",   "const",
    "static", "register", "volatile", "auto",
};

constexpr std::string_view kDeclTypedefs[] = {
    "size_t", "ssize_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "int8_t", "int16_t", "int32_t", "int64_t",  "u8",       "u16",
    "u32",    "u64",     "s8",      "s16",      "s32",      "s64",
    "uintptr_t", "intptr_t", "off_t", "FILE",
};

bool is_decl_starter(const lang::Token& t) {
  if (t.kind == lang::TokenKind::kKeyword) {
    return std::find(std::begin(kDeclKeywords), std::end(kDeclKeywords), t.text) !=
           std::end(kDeclKeywords);
  }
  if (t.kind == lang::TokenKind::kIdentifier) {
    return std::find(std::begin(kDeclTypedefs), std::end(kDeclTypedefs), t.text) !=
           std::end(kDeclTypedefs);
  }
  return false;
}

/// Extract declared variables from a declaration statement: names of the
/// declarators, split into initialized and uninitialized. Array
/// declarators are excluded from the uninitialized set (an array is
/// usually filled element-wise, not assigned whole).
void scan_declaration(const std::vector<lang::Token>& toks, StatementFacts& facts) {
  // Skip the leading type tokens (keywords, typedef names, '*').
  std::size_t i = 0;
  while (i < toks.size() &&
         (is_decl_starter(toks[i]) || toks[i].text == "*")) {
    ++i;
  }
  // Declarators: ident [= init] [, ident ...] ;
  while (i < toks.size()) {
    if (toks[i].kind != lang::TokenKind::kIdentifier) break;
    const std::string& name = toks[i].text;
    std::size_t j = i + 1;
    bool is_array = false;
    std::size_t depth = 0;
    bool initialized = false;
    for (; j < toks.size(); ++j) {
      const std::string& text = toks[j].text;
      if (text == "(" || text == "[" || text == "{") {
        if (text == "[" && depth == 0) is_array = true;
        ++depth;
        continue;
      }
      if (text == ")" || text == "]" || text == "}") {
        if (depth > 0) --depth;
        continue;
      }
      if (depth > 0) continue;
      if (text == "=") initialized = true;
      if (text == ",") break;
      if (text == ";") break;
    }
    facts.decls.insert(name);
    if (initialized) {
      facts.defs.insert(name);
    } else if (!is_array) {
      facts.decls_uninit.insert(name);
    }
    if (j < toks.size() && toks[j].text == ",") {
      i = j + 1;
      while (i < toks.size() && toks[i].text == "*") ++i;
      continue;
    }
    break;
  }
}

FactSet union_of(const FactSet& a, const FactSet& b) {
  FactSet out = a;
  out.insert(b.begin(), b.end());
  return out;
}

bool merge_into(FactSet& into, const FactSet& from) {
  const std::size_t before = into.size();
  into.insert(from.begin(), from.end());
  return into.size() != before;
}

/// Transfer function: (set − kill) ∪ gen applied in an order chosen per
/// pass (gen_first handles `if (!(p = malloc(n)))`, where the allocation
/// and its null test share one statement).
void apply(FactSet& set, const FactSet& gen, const FactSet& kill, bool gen_first) {
  if (gen_first) {
    set.insert(gen.begin(), gen.end());
    for (const std::string& k : kill) set.erase(k);
  } else {
    for (const std::string& k : kill) set.erase(k);
    set.insert(gen.begin(), gen.end());
  }
}

// --- pass gen/kill definitions -----------------------------------------

FactSet gen_uninit(const StatementFacts& f) { return f.decls_uninit; }
FactSet kill_uninit(const StatementFacts& f) {
  return union_of(f.defs, f.addr_taken);
}

FactSet gen_freed(const StatementFacts& f) { return f.freed; }
FactSet kill_freed(const StatementFacts& f) {
  return union_of(f.defs, f.alloc_defs);
}

FactSet gen_unchecked(const StatementFacts& f) { return f.alloc_defs; }
FactSet kill_unchecked(const StatementFacts& f) {
  FactSet kill = f.null_tested;
  for (const std::string& d : f.defs) {
    if (f.alloc_defs.count(d) == 0) kill.insert(d);
  }
  return kill;
}

FactSet gen_nothing(const StatementFacts&) { return {}; }
FactSet kill_params(const StatementFacts& f) {
  return union_of(f.null_tested, f.defs);
}

FactSet gen_guarded(const StatementFacts& f) { return f.bound_tested; }
FactSet kill_guarded(const StatementFacts& f) {
  FactSet kill;
  for (const std::string& d : f.defs) {
    if (f.bound_tested.count(d) == 0) kill.insert(d);
  }
  return kill;
}

/// Union `from` into `into`, flow by flow; true when any flow grew.
bool join(FlowState& into, const FlowState& from) {
  bool grew = merge_into(into.maybe_uninit, from.maybe_uninit);
  grew |= merge_into(into.maybe_freed, from.maybe_freed);
  grew |= merge_into(into.unchecked_alloc, from.unchecked_alloc);
  grew |= merge_into(into.unguarded_params, from.unguarded_params);
  grew |= merge_into(into.bound_guarded, from.bound_guarded);
  return grew;
}

}  // namespace

bool is_allocator(std::string_view name) {
  static constexpr std::string_view kAlloc[] = {
      "malloc",  "calloc",  "realloc", "strdup",   "strndup",  "kmalloc",
      "kzalloc", "kcalloc", "vmalloc", "xmalloc",  "g_malloc", "av_malloc",
      "OPENSSL_malloc", "alloca",
  };
  return std::find(std::begin(kAlloc), std::end(kAlloc), name) != std::end(kAlloc);
}

bool is_deallocator(std::string_view name) {
  static constexpr std::string_view kFree[] = {
      "free", "kfree", "kvfree", "vfree", "g_free", "xfree", "av_free",
      "OPENSSL_free",
  };
  return std::find(std::begin(kFree), std::end(kFree), name) != std::end(kFree);
}

int alloc_size_arg(std::string_view name) {
  if (name == "malloc" || name == "vmalloc" || name == "xmalloc" ||
      name == "alloca" || name == "g_malloc" || name == "OPENSSL_malloc") {
    return 0;
  }
  if (name == "kmalloc" || name == "kzalloc") return 0;
  if (name == "realloc") return 1;
  return -1;
}

StatementFacts facts_for(const Statement& stmt) {
  StatementFacts facts;
  const std::vector<lang::Token>& toks = stmt.tokens;

  // --- calls and their arguments.
  std::vector<bool> is_call_name(toks.size(), false);
  std::vector<bool> is_field_name(toks.size(), false);
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const lang::Token& t = toks[i];
    if (i > 0 && (toks[i - 1].text == "->" || toks[i - 1].text == ".") &&
        t.kind == lang::TokenKind::kIdentifier &&
        (i + 1 >= toks.size() || toks[i + 1].text != "(")) {
      is_field_name[i] = true;
    }
    if (t.kind != lang::TokenKind::kIdentifier || i + 1 >= toks.size() ||
        toks[i + 1].text != "(") {
      continue;
    }
    is_call_name[i] = true;
    facts.calls.push_back(t.text);
    // Split the argument list at depth-1 commas.
    std::vector<std::string> args;
    std::string current;
    std::size_t depth = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      const std::string& text = toks[j].text;
      if (text == "(" || text == "[" || text == "{") {
        ++depth;
        if (depth == 1) continue;
      } else if (text == ")" || text == "]" || text == "}") {
        if (depth == 0) break;
        --depth;
        if (depth == 0) break;
      } else if (text == "," && depth == 1) {
        if (!current.empty()) args.push_back(current);
        current.clear();
        continue;
      }
      if (depth >= 1) {
        if (!current.empty()) current += ' ';
        current += text;
      }
    }
    if (!current.empty()) args.push_back(current);
    facts.call_args.push_back(std::move(args));
  }

  // --- free / assert-style calls.
  for (std::size_t c = 0; c < facts.calls.size(); ++c) {
    const std::string& name = facts.calls[c];
    if (is_deallocator(name) && !facts.call_args[c].empty()) {
      // Base identifier of the first argument.
      const std::vector<lang::Token> arg = lang::lex(facts.call_args[c][0]);
      for (const lang::Token& t : arg) {
        if (t.kind == lang::TokenKind::kIdentifier) {
          facts.freed.insert(t.text);
          break;
        }
      }
    }
    if (is_assert_fn(name)) {
      for (const std::string& arg : facts.call_args[c]) {
        for (const lang::Token& t : lang::lex(arg)) {
          if (t.kind == lang::TokenKind::kIdentifier && !lang::is_keyword(t.text)) {
            facts.null_tested.insert(t.text);
            facts.bound_tested.insert(t.text);
          }
        }
      }
    }
  }

  // --- declarations.
  const bool looks_like_decl =
      !stmt.is_condition && !toks.empty() &&
      (is_decl_starter(toks[0]) ||
       (toks.size() >= 3 && toks[0].kind == lang::TokenKind::kIdentifier &&
        toks[1].text == "*" && toks[2].kind == lang::TokenKind::kIdentifier &&
        !is_call_name[0]));
  if (looks_like_decl) scan_declaration(toks, facts);

  // --- assignments, increments, dereferences, address-taking, indexing.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const lang::Token& t = toks[i];
    if (t.kind == lang::TokenKind::kOperator) {
      if (t.text == "*" && i + 1 < toks.size() &&
          toks[i + 1].kind == lang::TokenKind::kIdentifier &&
          unary_position(toks, i) && !looks_like_decl) {
        facts.derefs.insert(toks[i + 1].text);
      }
      if (t.text == "&" && i + 1 < toks.size() &&
          toks[i + 1].kind == lang::TokenKind::kIdentifier &&
          unary_position(toks, i)) {
        facts.addr_taken.insert(toks[i + 1].text);
      }
      if ((t.text == "++" || t.text == "--")) {
        const std::size_t target =
            i + 1 < toks.size() &&
                    toks[i + 1].kind == lang::TokenKind::kIdentifier
                ? i + 1
                : (i > 0 && toks[i - 1].kind == lang::TokenKind::kIdentifier
                       ? i - 1
                       : static_cast<std::size_t>(-1));
        if (target != static_cast<std::size_t>(-1)) {
          facts.defs.insert(toks[target].text);
          facts.uses.insert(toks[target].text);
        }
      }
      if (lang::classify_operator(t.text) == lang::OperatorClass::kAssignment &&
          i > 0) {
        // Walk the left-hand side back to the statement start (or the
        // nearest expression boundary) to find its base identifier.
        std::size_t first = i;
        std::size_t depth = 0;
        while (first > 0) {
          const std::string& text = toks[first - 1].text;
          if (text == "]" || text == ")") {
            ++depth;
          } else if (text == "[" || text == "(") {
            if (depth == 0) break;
            --depth;
          } else if (depth == 0 &&
                     (text == "," || text == ";" || text == "&&" ||
                      text == "||")) {
            break;
          }
          --first;
        }
        std::size_t base = static_cast<std::size_t>(-1);
        for (std::size_t j = first; j < i; ++j) {
          if (toks[j].kind == lang::TokenKind::kIdentifier &&
              !is_decl_starter(toks[j]) && !is_field_name[j]) {
            base = j;
            break;
          }
        }
        if (base != static_cast<std::size_t>(-1)) {
          bool lhs_is_deref = false;
          for (std::size_t j = first; j < i; ++j) {
            const std::string& text = toks[j].text;
            if (text == "->" || text == "[" ||
                (text == "*" && unary_position(toks, j) && !looks_like_decl)) {
              lhs_is_deref = true;
            }
          }
          if (lhs_is_deref) {
            facts.derefs.insert(toks[base].text);
          } else {
            facts.defs.insert(toks[base].text);
          }
          if (t.text != "=") facts.uses.insert(toks[base].text);  // n += x
        }
      }
    }
    if (t.kind == lang::TokenKind::kIdentifier) {
      if (i + 1 < toks.size() &&
          (toks[i + 1].text == "->" || toks[i + 1].text == "[")) {
        facts.derefs.insert(t.text);
      }
      if (toks[i + 1 < toks.size() ? i + 1 : i].text == "[" && i + 1 < toks.size()) {
        // Identifiers inside the brackets are index variables.
        std::size_t depth = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
          const std::string& text = toks[j].text;
          if (text == "[") { ++depth; continue; }
          if (text == "]") {
            if (--depth == 0) break;
            continue;
          }
          if (depth >= 1 && toks[j].kind == lang::TokenKind::kIdentifier &&
              !is_call_name[j] && !is_field_name[j]) {
            facts.index_vars.insert(toks[j].text);
          }
        }
      }
    }
  }

  // --- allocation results: an assignment whose RHS calls an allocator.
  bool calls_alloc = false;
  for (const std::string& name : facts.calls) calls_alloc |= is_allocator(name);
  if (calls_alloc) {
    for (const std::string& d : facts.defs) facts.alloc_defs.insert(d);
    for (const std::string& d : facts.decls) {
      if (facts.defs.count(d)) facts.alloc_defs.insert(d);
    }
  }

  // --- condition tests: null tests and relational bounds.
  if (stmt.is_condition) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const lang::Token& t = toks[i];
      if (t.text == "!" && i + 1 < toks.size() &&
          toks[i + 1].kind == lang::TokenKind::kIdentifier) {
        facts.null_tested.insert(toks[i + 1].text);
      }
      if ((t.text == "==" || t.text == "!=")) {
        const bool lhs_null = i > 0 && is_null_literal(toks[i - 1].text);
        const bool rhs_null = i + 1 < toks.size() && is_null_literal(toks[i + 1].text);
        if (rhs_null && i > 0 && toks[i - 1].kind == lang::TokenKind::kIdentifier) {
          facts.null_tested.insert(toks[i - 1].text);
        }
        if (lhs_null && i + 1 < toks.size() &&
            toks[i + 1].kind == lang::TokenKind::kIdentifier) {
          facts.null_tested.insert(toks[i + 1].text);
        }
      }
      if (t.kind == lang::TokenKind::kIdentifier && !is_call_name[i] &&
          !is_field_name[i]) {
        const bool at_start = i == 0 || toks[i - 1].text == "(" ||
                              toks[i - 1].text == "&&" || toks[i - 1].text == "||";
        const bool at_end = i + 1 >= toks.size() || toks[i + 1].text == ")" ||
                            toks[i + 1].text == "&&" || toks[i + 1].text == "||";
        // A bare truthiness test `if (p)` / `... && p && ...`.
        if (at_start && at_end) facts.null_tested.insert(t.text);
      }
      if (t.kind == lang::TokenKind::kOperator && is_relational(t.text)) {
        // Identifiers on either side of the comparison, up to the nearest
        // logical/bracket boundary, are bound-tested.
        auto scan_side = [&](std::size_t from, bool forward) {
          std::size_t j = from;
          while (j < toks.size()) {
            const std::string& text = toks[j].text;
            if (text == "&&" || text == "||" || text == "(" || text == ")" ||
                text == "," || text == "?") {
              break;
            }
            if (toks[j].kind == lang::TokenKind::kIdentifier && !is_call_name[j]) {
              facts.bound_tested.insert(toks[j].text);
            }
            if (forward) {
              ++j;
            } else {
              if (j == 0) break;
              --j;
            }
          }
        };
        if (i > 0) scan_side(i - 1, false);
        scan_side(i + 1, true);
      }
    }
  }

  // --- uses: every identifier that is not a call name, a field name, a
  // declared type, or the pure LHS of a plain assignment.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const lang::Token& t = toks[i];
    if (t.kind != lang::TokenKind::kIdentifier) continue;
    if (is_call_name[i] || is_field_name[i]) continue;
    if (is_decl_starter(t)) continue;
    facts.uses.insert(t.text);
  }
  for (const std::string& d : facts.decls) facts.uses.erase(d);
  for (const std::string& d : facts.defs) {
    // `x = ...` does not read x unless it also appears on the RHS; the
    // set-based model cannot see double mentions, so treat a plain def
    // as not-a-use (compound assigns re-inserted uses above).
    if (facts.uses.count(d) && facts.decls.count(d) == 0) {
      // Keep the use only if the variable also occurs somewhere beyond
      // the LHS; approximate by counting occurrences.
      std::size_t occurrences = 0;
      for (const lang::Token& tok : toks) occurrences += tok.text == d;
      if (occurrences <= 1) facts.uses.erase(d);
    }
  }

  return facts;
}

FunctionFacts facts_for(const Cfg& cfg) {
  FunctionFacts facts(cfg.blocks.size());
  for (const BasicBlock& block : cfg.blocks) {
    facts[block.id].reserve(block.statements.size());
    for (const Statement& stmt : block.statements) {
      facts[block.id].push_back(facts_for(stmt));
    }
  }
  return facts;
}

void advance(FlowState& state, const StatementFacts& facts) {
  apply(state.maybe_uninit, gen_uninit(facts), kill_uninit(facts), false);
  apply(state.maybe_freed, gen_freed(facts), kill_freed(facts), false);
  apply(state.unchecked_alloc, gen_unchecked(facts), kill_unchecked(facts), true);
  apply(state.unguarded_params, gen_nothing(facts), kill_params(facts), false);
  apply(state.bound_guarded, gen_guarded(facts), kill_guarded(facts), false);
}

DataflowResult solve_dataflow(const Cfg& cfg, FunctionFacts facts,
                              const SummaryTable* summaries) {
  if (summaries != nullptr) {
    for (std::vector<StatementFacts>& block : facts) {
      for (StatementFacts& f : block) augment_facts(f, *summaries);
    }
  }
  DataflowResult result;
  result.facts = std::move(facts);
  result.entry.resize(cfg.blocks.size());
  result.entry[Cfg::kEntry].unguarded_params =
      FactSet(cfg.pointer_params.begin(), cfg.pointer_params.end());

  // Every flow joins by union and its transfer reads only its own set,
  // so one worklist over the whole state reaches the least fixpoint of
  // each flow, whatever the order blocks are visited in. A block already
  // waiting in the list is not queued twice: its visit reads the entry
  // state as it stands then.
  std::deque<std::size_t> worklist;
  std::vector<bool> queued(cfg.blocks.size(), true);
  for (const BasicBlock& block : cfg.blocks) worklist.push_back(block.id);
  while (!worklist.empty()) {
    const std::size_t b = worklist.front();
    worklist.pop_front();
    queued[b] = false;
    FlowState out = result.entry[b];
    for (const StatementFacts& f : result.facts[b]) advance(out, f);
    for (std::size_t succ : cfg.blocks[b].succs) {
      if (join(result.entry[succ], out) && !queued[succ]) {
        queued[succ] = true;
        worklist.push_back(succ);
      }
    }
  }
  return result;
}

}  // namespace patchdb::analysis
