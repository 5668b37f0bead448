#include "core/categorize.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "analysis/checkers.h"
#include "lang/lexer.h"
#include "lang/taxonomy.h"
#include "util/strings.h"

namespace patchdb::core {

namespace {

using util::contains;
using util::trim;

struct ChangeView {
  std::vector<std::string> added;    // trimmed added lines (code files only)
  std::vector<std::string> removed;  // trimmed removed lines
  std::size_t changed = 0;
};

ChangeView collect(const diff::Patch& patch) {
  ChangeView view;
  for (const diff::FileDiff& fd : patch.files) {
    const std::string& path = fd.new_path.empty() ? fd.old_path : fd.new_path;
    if (!diff::is_cpp_path(path)) continue;
    for (const diff::Hunk& hunk : fd.hunks) {
      for (const diff::Line& line : hunk.lines) {
        if (line.kind == diff::LineKind::kContext) continue;
        ++view.changed;
        std::string text(trim(line.text));
        if (line.kind == diff::LineKind::kAdded) {
          view.added.push_back(std::move(text));
        } else {
          view.removed.push_back(std::move(text));
        }
      }
    }
  }
  return view;
}

bool is_new_if(const std::string& added, const std::vector<std::string>& removed) {
  // "changed check" also counts: the removed side has a weaker condition.
  (void)removed;
  if (!contains(added, "(")) return false;
  // Bound checks frequently strengthen loop conditions, so while/for
  // condition changes count as condition checks too.
  return added.rfind("if", 0) == 0 || contains(added, "if (") ||
         contains(added, "while (") || added.rfind("for (", 0) == 0;
}

bool mentions_bound(const std::string& line) {
  return contains(line, "sizeof") || contains(line, "len") ||
         contains(line, "size") || contains(line, "count") ||
         contains(line, "bound") || contains(line, ">=") ||
         contains(line, "<=") || contains(line, " < ") || contains(line, " > ");
}

bool is_declaration(const std::string& line) {
  static constexpr std::string_view kTypes[] = {
      "int ", "unsigned ", "char ", "long ", "short ", "size_t ", "uint",
      "bool ", "float ", "double ",
  };
  for (std::string_view t : kTypes) {
    if (line.rfind(t, 0) == 0) return true;
    if (line.rfind("const ", 0) == 0 && contains(line, t)) return true;
    if (line.rfind("static ", 0) == 0 && contains(line, t)) return true;
  }
  return false;
}

bool is_signature(const std::string& line) {
  return (line.rfind("static ", 0) == 0 || line.rfind("int ", 0) == 0 ||
          line.rfind("void ", 0) == 0 || line.rfind("long ", 0) == 0) &&
         contains(line, "(") && !contains(line, ";") && !contains(line, "=");
}

bool is_jump(const std::string& line) {
  return line.rfind("goto ", 0) == 0 || line.rfind("return", 0) == 0 ||
         line == "break;" || line == "continue;" ||
         (util::ends_with(line, ":") && !contains(line, " "));
}

std::size_t count_calls(const std::string& line) {
  return lang::count_syntax(line).function_calls;
}

/// Multiset equality of nonempty removed vs added lines (pure moves).
bool pure_move(const ChangeView& view) {
  if (view.added.empty() || view.added.size() != view.removed.size()) return false;
  std::map<std::string, int> tally;
  for (const std::string& l : view.added) {
    if (!l.empty()) ++tally[l];
  }
  for (const std::string& l : view.removed) {
    if (!l.empty()) --tally[l];
  }
  for (const auto& [text, n] : tally) {
    if (n != 0) return false;
  }
  return true;
}

/// Last-resort tie-break from checker evidence: if the patch resolves
/// diagnostics of some checker, map that checker to the Table V type the
/// fix corresponds to. Returns kOther when no checker fired.
corpus::PatchType semantic_tiebreak(const analysis::PatchAnalysis& pa) {
  using corpus::PatchType;
  std::size_t best_checker = analysis::kCheckerCount;
  std::size_t best_resolved = 0;
  for (std::size_t c = 0; c < analysis::kCheckerCount; ++c) {
    const std::size_t net =
        pa.resolved_by_checker[c] > pa.introduced_by_checker[c]
            ? pa.resolved_by_checker[c] - pa.introduced_by_checker[c]
            : 0;
    if (net > best_resolved) {
      best_resolved = net;
      best_checker = c;
    }
  }
  if (best_checker == analysis::kCheckerCount) return PatchType::kOther;

  switch (static_cast<analysis::CheckerId>(best_checker)) {
    case analysis::CheckerId::kMissingNullGuard:
      return PatchType::kNullCheck;
    case analysis::CheckerId::kMissingBoundsCheck:
    case analysis::CheckerId::kIntOverflowSize:
      return PatchType::kBoundCheck;
    case analysis::CheckerId::kUncheckedAlloc:
    case analysis::CheckerId::kUninitUse:
    case analysis::CheckerId::kFormatString:
      return PatchType::kSanityCheck;
    case analysis::CheckerId::kUseAfterFree:
      return PatchType::kVarValue;
  }
  return PatchType::kOther;
}

/// The syntactic rule cascade: a Table V type, or nothing when every
/// rule comes up empty and the checkers must break the tie.
std::optional<corpus::PatchType> syntactic_category(const diff::Patch& patch) {
  const ChangeView view = collect(patch);
  using corpus::PatchType;

  if (view.changed == 0) return PatchType::kOther;

  // Type 10: statements moved without modification.
  if (pure_move(view)) return PatchType::kMoveStatement;

  // Type 11: large rewrites dominate every other signal.
  if (view.changed >= 14 &&
      view.added.size() + view.removed.size() >= 14 &&
      view.added.size() >= 2 * view.removed.size()) {
    return PatchType::kRedesign;
  }

  // Signature-level changes (types 6/7): a function signature appears on
  // both sides with the same name.
  for (const std::string& removed : view.removed) {
    if (!is_signature(removed)) continue;
    for (const std::string& added : view.added) {
      if (!is_signature(added)) continue;
      const std::size_t paren_r = removed.find('(');
      const std::size_t paren_a = added.find('(');
      const std::string name_r = removed.substr(0, paren_r);
      const std::string name_a = added.substr(0, paren_a);
      const std::size_t space_r = name_r.find_last_of(' ');
      const std::size_t space_a = name_a.find_last_of(' ');
      if (name_r.substr(space_r + 1) != name_a.substr(space_a + 1)) continue;
      const auto commas_r = std::count(removed.begin(), removed.end(), ',');
      const auto commas_a = std::count(added.begin(), added.end(), ',');
      return commas_r == commas_a ? PatchType::kFuncDeclaration
                                  : PatchType::kFuncParameter;
    }
  }

  // Type 9 (before the check rules — error-handling fixes usually add a
  // guard *and* a jump, and the goto/label/break is the distinguishing
  // signal): new goto statements, labels, or loop-exit swaps.
  for (const std::string& added : view.added) {
    const bool is_goto = added.rfind("goto ", 0) == 0 ||
                         (util::ends_with(added, ":") && !contains(added, " ") &&
                          !contains(added, "("));
    const bool loop_exit_swap =
        (added == "break;" &&
         std::find(view.removed.begin(), view.removed.end(), "continue;") !=
             view.removed.end()) ||
        (added == "continue;" &&
         std::find(view.removed.begin(), view.removed.end(), "break;") !=
             view.removed.end());
    if (is_goto || loop_exit_swap) return PatchType::kJumpStatement;
  }

  // Types 1-3: sanity checks added or strengthened.
  for (const std::string& added : view.added) {
    if (!is_new_if(added, view.removed)) continue;
    // Skip ifs that merely survived a rewrite: require the removed side to
    // not contain the identical line.
    if (std::find(view.removed.begin(), view.removed.end(), added) !=
        view.removed.end()) {
      continue;
    }
    // NULL-ness first: explicit NULL/nullptr comparisons or a bare
    // pointer-truthiness test `if (!x)` / `if (x &&`.
    if (contains(added, "NULL") || contains(added, "nullptr")) {
      return PatchType::kNullCheck;
    }
    const std::size_t bang = added.find("(!");
    if (bang != std::string::npos && !contains(added, "==") &&
        !contains(added, "<") && !contains(added, ">")) {
      return PatchType::kNullCheck;
    }
    // Buffer-bound checks: sizeof or an index/length comparison.
    if (contains(added, "sizeof")) return PatchType::kBoundCheck;
    if (mentions_bound(added) &&
        (contains(added, " < ") || contains(added, " > ") ||
         contains(added, ">=") || contains(added, "<="))) {
      // Range checks against magic constants are "other sanity checks";
      // comparisons between two variables are bound checks.
      const bool magic_range_constant = contains(added, "4096");
      if (!magic_range_constant) return PatchType::kBoundCheck;
    }
    return PatchType::kSanityCheck;
  }

  // Type 4 vs 5: declaration changes vs value changes.
  for (const std::string& removed : view.removed) {
    if (!is_declaration(removed)) continue;
    for (const std::string& added : view.added) {
      if (!is_declaration(added)) continue;
      if (added == removed) continue;
      // Same variable name? crude check: share the identifier before '='
      // or before '[' / ';'.
      const auto name_of = [](const std::string& line) {
        const std::size_t stop = line.find_first_of("=[;");
        const std::string head = line.substr(0, stop);
        const std::size_t space = head.find_last_of(" *");
        return head.substr(space + 1);
      };
      if (name_of(added) == name_of(removed)) {
        // Initializer added -> value change; type text changed -> defn.
        const bool init_added = contains(added, "=") && !contains(removed, "=");
        return init_added ? PatchType::kVarValue : PatchType::kVarDefinition;
      }
    }
  }

  // Type 5 continued: memset/zeroing or constant value updates.
  for (const std::string& added : view.added) {
    if (added.rfind("memset", 0) == 0 || contains(added, " = 0;") ||
        contains(added, "= -1;")) {
      if (view.removed.empty() ||
          std::none_of(view.removed.begin(), view.removed.end(),
                       [](const std::string& l) { return count_calls(l) > 0; })) {
        return PatchType::kVarValue;
      }
    }
  }

  // Type 9: jump statements.
  {
    std::size_t added_jumps = 0;
    for (const std::string& added : view.added) added_jumps += is_jump(added);
    std::size_t removed_jumps = 0;
    for (const std::string& removed : view.removed) {
      removed_jumps += is_jump(removed);
    }
    if (added_jumps > removed_jumps && added_jumps > 0 &&
        view.added.size() <= added_jumps + 2) {
      return PatchType::kJumpStatement;
    }
  }

  // Type 8: call-level changes (added, removed, or substituted calls).
  {
    std::size_t added_calls = 0;
    for (const std::string& added : view.added) added_calls += count_calls(added);
    std::size_t removed_calls = 0;
    for (const std::string& removed : view.removed) {
      removed_calls += count_calls(removed);
    }
    if (added_calls != removed_calls ||
        (added_calls > 0 && view.added != view.removed)) {
      if (added_calls > 0 || removed_calls > 0) return PatchType::kFuncCall;
    }
  }

  // Every syntactic rule came up empty; the CFG checkers vote before
  // the patch is given up as kOther.
  return std::nullopt;
}

}  // namespace

corpus::PatchType categorize(const diff::Patch& patch) {
  if (const auto type = syntactic_category(patch)) return *type;
  return semantic_tiebreak(analysis::analyze_patch(patch));
}

corpus::PatchType categorize(const diff::Patch& patch,
                             const analysis::PatchAnalysis& analysis) {
  if (const auto type = syntactic_category(patch)) return *type;
  return semantic_tiebreak(analysis);
}

void CompositionTally::add(const diff::Patch& patch, corpus::PatchType label) {
  if (!corpus::is_security_type(label)) return;
  ++total;
  ++labeled[static_cast<std::size_t>(label) - 1];
  const corpus::PatchType guess = categorize(patch);
  if (corpus::is_security_type(guess)) ++predicted[static_cast<std::size_t>(guess) - 1];
  agreement += guess == label;
}

}  // namespace patchdb::core
