#include "analysis/cfg.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "lang/lexer.h"
#include "lang/parser.h"

namespace patchdb::analysis {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Token index of the bracket matching the opener at `open_index`, or
/// kNpos when the stream ends unbalanced.
std::size_t match_bracket(std::span<const lang::Token> tokens, std::size_t open_index,
                          std::string_view open, std::string_view close) {
  std::size_t depth = 0;
  for (std::size_t i = open_index; i < tokens.size(); ++i) {
    if (tokens[i].text == open) {
      ++depth;
    } else if (tokens[i].text == close) {
      if (--depth == 0) return i;
    }
  }
  return kNpos;
}

/// Builds one Cfg by structured recursion over a token span. Break and
/// continue targets live on explicit stacks; goto edges are resolved
/// after the walk from the collected label table.
class CfgBuilder {
 public:
  explicit CfgBuilder(std::string function_name) {
    cfg_.function = std::move(function_name);
    cfg_.blocks.resize(2);
    cfg_.blocks[Cfg::kEntry].id = Cfg::kEntry;
    cfg_.blocks[Cfg::kExit].id = Cfg::kExit;
    cur_ = new_block();
    add_edge(Cfg::kEntry, cur_);
  }

  Cfg build(std::span<const lang::Token> tokens) {
    // Strip preprocessor lines and an outermost brace pair, if any.
    std::vector<lang::Token> body;
    body.reserve(tokens.size());
    for (const lang::Token& t : tokens) {
      if (t.kind != lang::TokenKind::kPreprocessor) body.push_back(t);
    }
    std::span<const lang::Token> view = body;
    if (!view.empty() && view.front().text == "{") {
      const std::size_t close = match_bracket(view, 0, "{", "}");
      view = close == kNpos ? view.subspan(1) : view.subspan(1, close - 1);
    }
    parse_sequence(view, 0, view.size());
    if (!terminated_) add_edge(cur_, Cfg::kExit);
    resolve_gotos();
    seal();
    return std::move(cfg_);
  }

 private:
  std::size_t new_block() {
    const std::size_t id = cfg_.blocks.size();
    cfg_.blocks.emplace_back();
    cfg_.blocks.back().id = id;
    return id;
  }

  void add_edge(std::size_t from, std::size_t to) {
    std::vector<std::size_t>& succs = cfg_.blocks[from].succs;
    if (std::find(succs.begin(), succs.end(), to) == succs.end()) succs.push_back(to);
  }

  void append(std::span<const lang::Token> toks, std::size_t first, std::size_t last,
              bool is_condition) {
    if (first >= last) return;
    Statement stmt;
    stmt.tokens.assign(toks.begin() + static_cast<std::ptrdiff_t>(first),
                       toks.begin() + static_cast<std::ptrdiff_t>(last));
    stmt.line = stmt.tokens.front().line;
    stmt.is_condition = is_condition;
    cfg_.blocks[cur_].statements.push_back(std::move(stmt));
  }

  /// After a return/goto/break/continue the walk continues in a fresh
  /// block that has no predecessors (unreachable until a label lands).
  void start_dead_block() {
    cur_ = new_block();
    terminated_ = false;
  }

  void parse_sequence(std::span<const lang::Token> toks, std::size_t begin,
                      std::size_t end) {
    std::size_t i = begin;
    while (i < end && i < toks.size()) {
      const std::size_t next = parse_statement(toks, i, end);
      i = next > i ? next : i + 1;  // always make progress
    }
  }

  /// Parse one statement starting at `i`; returns the index just past it.
  std::size_t parse_statement(std::span<const lang::Token> toks, std::size_t i,
                              std::size_t end) {
    const lang::Token& t = toks[i];
    if (t.text == ";") return i + 1;
    if (t.text == "{") {
      std::size_t close = match_bracket(toks.subspan(0, end), i, "{", "}");
      if (close == kNpos) close = end;
      parse_sequence(toks, i + 1, close);
      return close + 1;
    }
    if (t.kind == lang::TokenKind::kKeyword) {
      if (t.text == "if") return parse_if(toks, i, end);
      if (t.text == "while") return parse_while(toks, i, end);
      if (t.text == "for") return parse_for(toks, i, end);
      if (t.text == "do") return parse_do(toks, i, end);
      if (t.text == "switch") return parse_switch(toks, i, end);
      if (t.text == "return") {
        const std::size_t stop = find_semicolon(toks, i, end);
        append(toks, i, stop, false);
        add_edge(cur_, Cfg::kExit);
        terminated_ = true;
        start_dead_block();
        return stop + 1;
      }
      if (t.text == "break" || t.text == "continue") {
        append(toks, i, i + 1, false);
        const std::vector<std::size_t>& stack =
            t.text == "break" ? break_targets_ : continue_targets_;
        add_edge(cur_, stack.empty() ? Cfg::kExit : stack.back());
        terminated_ = true;
        start_dead_block();
        return find_semicolon(toks, i, end) + 1;
      }
      if (t.text == "goto") {
        const std::size_t stop = find_semicolon(toks, i, end);
        append(toks, i, stop, false);
        if (i + 1 < stop) pending_gotos_.emplace_back(toks[i + 1].text, cur_);
        terminated_ = true;
        start_dead_block();
        return stop + 1;
      }
      if (t.text == "else") {
        // A stray `else` (its `if` was outside the fragment): treat the
        // body as a plain statement.
        return i + 1;
      }
    }
    // Label: `ident :` (not `::`, not `? :`). Starts a new block that is
    // also a goto target.
    if (t.kind == lang::TokenKind::kIdentifier && i + 1 < end &&
        toks[i + 1].text == ":") {
      const std::size_t label_block = new_block();
      if (!terminated_) add_edge(cur_, label_block);
      cur_ = label_block;
      terminated_ = false;
      labels_[t.text] = label_block;
      return i + 2;
    }
    // Expression statement: consume up to the `;` at bracket depth 0.
    const std::size_t stop = find_semicolon(toks, i, end);
    append(toks, i, stop, false);
    return stop + 1;
  }

  std::size_t parse_if(std::span<const lang::Token> toks, std::size_t i,
                       std::size_t end) {
    std::size_t open = i + 1;
    if (open < end && toks[open].text == "constexpr") ++open;
    if (open >= end || toks[open].text != "(") {
      return i + 1;  // malformed; skip the keyword
    }
    std::size_t close = match_bracket(toks.subspan(0, end), open, "(", ")");
    if (close == kNpos) close = end - 1;
    append(toks, i, close + 1, /*is_condition=*/true);
    const std::size_t cond_block = cur_;
    const bool cond_terminated = terminated_;

    const std::size_t then_block = new_block();
    if (!cond_terminated) add_edge(cond_block, then_block);
    cur_ = then_block;
    terminated_ = false;
    std::size_t next = close + 1 < end ? parse_statement(toks, close + 1, end) : end;
    const std::size_t then_end = cur_;
    const bool then_terminated = terminated_;

    std::size_t else_end = cond_block;
    bool else_terminated = cond_terminated;
    bool has_else = false;
    if (next < end && toks[next].text == "else") {
      has_else = true;
      const std::size_t else_block = new_block();
      if (!cond_terminated) add_edge(cond_block, else_block);
      cur_ = else_block;
      terminated_ = false;
      next = next + 1 < end ? parse_statement(toks, next + 1, end) : end;
      else_end = cur_;
      else_terminated = terminated_;
    }

    const std::size_t join = new_block();
    if (!then_terminated) add_edge(then_end, join);
    if (has_else) {
      if (!else_terminated) add_edge(else_end, join);
    } else if (!cond_terminated) {
      add_edge(cond_block, join);
    }
    cur_ = join;
    terminated_ = false;
    return next;
  }

  std::size_t parse_while(std::span<const lang::Token> toks, std::size_t i,
                          std::size_t end) {
    const std::size_t open = i + 1;
    if (open >= end || toks[open].text != "(") return i + 1;
    std::size_t close = match_bracket(toks.subspan(0, end), open, "(", ")");
    if (close == kNpos) close = end - 1;

    const std::size_t header = new_block();
    if (!terminated_) add_edge(cur_, header);
    cur_ = header;
    terminated_ = false;
    append(toks, i, close + 1, /*is_condition=*/true);

    const std::size_t body = new_block();
    const std::size_t exit = new_block();
    add_edge(header, body);
    add_edge(header, exit);

    break_targets_.push_back(exit);
    continue_targets_.push_back(header);
    cur_ = body;
    const std::size_t next = close + 1 < end ? parse_statement(toks, close + 1, end) : end;
    if (!terminated_) add_edge(cur_, header);  // back edge
    break_targets_.pop_back();
    continue_targets_.pop_back();

    cur_ = exit;
    terminated_ = false;
    return next;
  }

  std::size_t parse_for(std::span<const lang::Token> toks, std::size_t i,
                        std::size_t end) {
    const std::size_t open = i + 1;
    if (open >= end || toks[open].text != "(") return i + 1;
    std::size_t close = match_bracket(toks.subspan(0, end), open, "(", ")");
    if (close == kNpos) close = end - 1;

    // Split `init ; cond ; step` at paren depth 1.
    std::size_t first_semi = kNpos;
    std::size_t second_semi = kNpos;
    std::size_t depth = 0;
    for (std::size_t j = open; j < close; ++j) {
      const std::string& text = toks[j].text;
      if (text == "(" || text == "[") ++depth;
      else if (text == ")" || text == "]") --depth;
      else if (text == ";" && depth == 1) {
        if (first_semi == kNpos) first_semi = j;
        else if (second_semi == kNpos) second_semi = j;
      }
    }

    // Init runs in the current block.
    if (first_semi != kNpos) append(toks, open + 1, first_semi, false);

    const std::size_t header = new_block();
    if (!terminated_) add_edge(cur_, header);
    cur_ = header;
    terminated_ = false;
    const std::size_t cond_begin = first_semi == kNpos ? open + 1 : first_semi + 1;
    const std::size_t cond_end = second_semi == kNpos ? close : second_semi;
    const bool has_cond = cond_begin < cond_end;
    if (has_cond) append(toks, cond_begin, cond_end, /*is_condition=*/true);

    const std::size_t body = new_block();
    const std::size_t exit = new_block();
    add_edge(header, body);
    // `for (;;)` never falls out of the header; only break reaches exit.
    if (has_cond) add_edge(header, exit);

    break_targets_.push_back(exit);
    continue_targets_.push_back(header);
    cur_ = body;
    const std::size_t next = close + 1 < end ? parse_statement(toks, close + 1, end) : end;
    if (!terminated_) {
      // The step expression runs at the bottom of the body.
      if (second_semi != kNpos) append(toks, second_semi + 1, close, false);
      add_edge(cur_, header);
    }
    break_targets_.pop_back();
    continue_targets_.pop_back();

    cur_ = exit;
    terminated_ = false;
    return next;
  }

  std::size_t parse_do(std::span<const lang::Token> toks, std::size_t i,
                       std::size_t end) {
    const std::size_t body = new_block();
    if (!terminated_) add_edge(cur_, body);
    const std::size_t cond = new_block();
    const std::size_t exit = new_block();

    break_targets_.push_back(exit);
    continue_targets_.push_back(cond);
    cur_ = body;
    terminated_ = false;
    std::size_t next = i + 1 < end ? parse_statement(toks, i + 1, end) : end;
    if (!terminated_) add_edge(cur_, cond);
    break_targets_.pop_back();
    continue_targets_.pop_back();

    cur_ = cond;
    terminated_ = false;
    // `while ( ... ) ;`
    if (next < end && toks[next].text == "while") {
      const std::size_t open = next + 1;
      if (open < end && toks[open].text == "(") {
        std::size_t close = match_bracket(toks.subspan(0, end), open, "(", ")");
        if (close == kNpos) close = end - 1;
        append(toks, next, close + 1, /*is_condition=*/true);
        next = close + 1;
        if (next < end && toks[next].text == ";") ++next;
      } else {
        ++next;
      }
    }
    add_edge(cond, body);  // back edge
    add_edge(cond, exit);
    cur_ = exit;
    terminated_ = false;
    return next;
  }

  std::size_t parse_switch(std::span<const lang::Token> toks, std::size_t i,
                           std::size_t end) {
    const std::size_t open = i + 1;
    if (open >= end || toks[open].text != "(") return i + 1;
    std::size_t close = match_bracket(toks.subspan(0, end), open, "(", ")");
    if (close == kNpos) close = end - 1;
    append(toks, i, close + 1, /*is_condition=*/true);
    const std::size_t header = cur_;

    std::size_t body_open = close + 1;
    if (body_open >= end || toks[body_open].text != "{") {
      return close + 1;  // switch without a block: nothing to schedule
    }
    std::size_t body_close = match_bracket(toks.subspan(0, end), body_open, "{", "}");
    if (body_close == kNpos) body_close = end;

    const std::size_t exit = new_block();
    break_targets_.push_back(exit);
    bool saw_default = false;

    std::size_t j = body_open + 1;
    terminated_ = true;  // no fallthrough into the first case from the header
    while (j < body_close) {
      const lang::Token& t = toks[j];
      if (t.text == "case" || t.text == "default") {
        saw_default |= t.text == "default";
        // Find the ':' ending the label (skip ?: by tracking brackets).
        std::size_t colon = j + 1;
        while (colon < body_close && toks[colon].text != ":") ++colon;
        const std::size_t arm = new_block();
        add_edge(header, arm);
        if (!terminated_) add_edge(cur_, arm);  // fallthrough from previous arm
        cur_ = arm;
        terminated_ = false;
        j = colon + 1;
        continue;
      }
      j = parse_statement(toks, j, body_close);
    }
    if (!terminated_) add_edge(cur_, exit);
    if (!saw_default) add_edge(header, exit);
    break_targets_.pop_back();

    cur_ = exit;
    terminated_ = false;
    return body_close + 1;
  }

  /// Index of the `;` ending the statement at `i` (bracket-depth aware);
  /// `end - 1` when the fragment is truncated.
  std::size_t find_semicolon(std::span<const lang::Token> toks, std::size_t i,
                             std::size_t end) const {
    std::size_t depth = 0;
    for (std::size_t j = i; j < end; ++j) {
      const std::string& text = toks[j].text;
      if (text == "(" || text == "[" || text == "{") ++depth;
      else if (text == ")" || text == "]") {
        if (depth > 0) --depth;
      } else if (text == "}") {
        if (depth == 0) return j > i ? j - 1 : i;  // ran past our scope
        --depth;
      } else if (text == ";" && depth == 0) {
        return j;
      }
    }
    return end == 0 ? 0 : end - 1;
  }

  void resolve_gotos() {
    for (const auto& [label, from] : pending_gotos_) {
      const auto it = labels_.find(label);
      add_edge(from, it != labels_.end() ? it->second : Cfg::kExit);
    }
  }

  void seal() {
    for (const BasicBlock& block : cfg_.blocks) {
      for (std::size_t succ : block.succs) {
        cfg_.blocks[succ].preds.push_back(block.id);
      }
    }
  }

  Cfg cfg_;
  std::size_t cur_ = 0;
  bool terminated_ = false;
  std::vector<std::size_t> break_targets_;
  std::vector<std::size_t> continue_targets_;
  std::unordered_map<std::string, std::size_t> labels_;
  std::vector<std::pair<std::string, std::size_t>> pending_gotos_;
};

/// Parameter names declared in the signature tokens `( ... )`. The name
/// of each comma-separated declarator is its last depth-0 identifier;
/// parameters declared with '*' are additionally recorded as pointers.
void scan_params(std::span<const lang::Token> tokens, std::size_t open,
                 std::size_t close, Cfg& cfg) {
  bool saw_star = false;
  std::string last_identifier;
  std::size_t depth = 0;
  const auto flush = [&] {
    if (!last_identifier.empty()) {
      cfg.params.push_back(last_identifier);
      if (saw_star) cfg.pointer_params.push_back(last_identifier);
    }
    saw_star = false;
    last_identifier.clear();
  };
  for (std::size_t i = open + 1; i < close; ++i) {
    const lang::Token& t = tokens[i];
    if (t.text == "(" || t.text == "[") { ++depth; continue; }
    if (t.text == ")" || t.text == "]") { if (depth > 0) --depth; continue; }
    if (depth > 0) continue;
    if (t.text == "*") {
      saw_star = true;
    } else if (t.kind == lang::TokenKind::kIdentifier) {
      last_identifier = t.text;
    } else if (t.text == ",") {
      flush();
    }
  }
  flush();
}

}  // namespace

std::string Statement::text() const {
  std::string out;
  for (const lang::Token& t : tokens) {
    if (!out.empty()) out += ' ';
    out += t.text;
  }
  return out;
}

std::size_t Cfg::edge_count() const noexcept {
  std::size_t edges = 0;
  for (const BasicBlock& block : blocks) edges += block.succs.size();
  return edges;
}

std::size_t Cfg::cyclomatic() const noexcept {
  const std::size_t edges = edge_count();
  const std::size_t nodes = blocks.size();
  return edges + 2 > nodes ? edges + 2 - nodes : 1;
}

Cfg build_cfg(std::span<const lang::Token> tokens, std::string function_name) {
  CfgBuilder builder(std::move(function_name));
  return builder.build(tokens);
}

std::vector<Cfg> build_cfgs(std::string_view source) {
  const std::vector<lang::Token> tokens = lang::lex(source);
  const lang::ParsedFile parsed = lang::parse_source(source);

  std::vector<Cfg> out;
  std::vector<bool> covered(tokens.size(), false);

  for (const lang::FunctionInfo& fn : parsed.functions) {
    // Locate the name token, its parameter list, and the body braces.
    std::size_t name_index = kNpos;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (tokens[i].line == fn.signature_line &&
          tokens[i].kind == lang::TokenKind::kIdentifier &&
          tokens[i].text == fn.name && i + 1 < tokens.size() &&
          tokens[i + 1].text == "(") {
        name_index = i;
        break;
      }
    }
    if (name_index == kNpos) continue;
    const std::size_t params_close =
        match_bracket(tokens, name_index + 1, "(", ")");
    if (params_close == kNpos) continue;
    std::size_t body_open = params_close + 1;
    if (body_open >= tokens.size() || tokens[body_open].text != "{") continue;
    std::size_t body_close = match_bracket(tokens, body_open, "{", "}");
    if (body_close == kNpos) body_close = tokens.size() - 1;

    Cfg cfg = build_cfg(
        std::span<const lang::Token>(tokens).subspan(body_open,
                                                     body_close - body_open + 1),
        fn.name);
    scan_params(tokens, name_index + 1, params_close, cfg);
    out.push_back(std::move(cfg));
    // The return type and qualifiers precede the name; cover them back to
    // the previous statement/body boundary so they don't end up in the
    // leftover pseudo-function.
    std::size_t decl_start = name_index;
    while (decl_start > 0) {
      const lang::Token& prev = tokens[decl_start - 1];
      if (prev.kind != lang::TokenKind::kIdentifier &&
          prev.kind != lang::TokenKind::kKeyword && prev.text != "*") {
        break;
      }
      --decl_start;
    }
    for (std::size_t i = decl_start; i <= body_close && i < covered.size(); ++i) {
      covered[i] = true;
    }
  }

  // Leftover tokens (hunk fragments with the signature out of view) form
  // one pseudo-function so the checkers still see them.
  std::vector<lang::Token> leftover;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (covered[i]) continue;
    if (tokens[i].kind != lang::TokenKind::kPreprocessor) {
      leftover.push_back(tokens[i]);
    }
  }
  if (leftover.size() > 2) {
    out.push_back(build_cfg(leftover, "<fragment>"));
  }
  return out;
}

}  // namespace patchdb::analysis
