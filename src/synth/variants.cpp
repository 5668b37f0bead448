#include "synth/variants.h"

#include <utility>

namespace patchdb::synth {

std::array<IfVariant, kVariantCount> all_variants() {
  return {IfVariant::kOrZero,   IfVariant::kAndOne,  IfVariant::kHoistEq,
          IfVariant::kHoistNegate, IfVariant::kFlagSet, IfVariant::kFlagClear,
          IfVariant::kFlagAnd,  IfVariant::kFlagOrNot};
}

const char* variant_name(IfVariant variant) {
  switch (variant) {
    case IfVariant::kOrZero: return "or-zero guard";
    case IfVariant::kAndOne: return "and-one guard";
    case IfVariant::kHoistEq: return "hoisted boolean (==)";
    case IfVariant::kHoistNegate: return "hoisted negated boolean";
    case IfVariant::kFlagSet: return "flag set";
    case IfVariant::kFlagClear: return "flag clear";
    case IfVariant::kFlagAnd: return "flag and condition";
    case IfVariant::kFlagOrNot: return "not-flag or condition";
  }
  return "?";
}

VariantRewrite rewrite_if(IfVariant variant, const std::string& condition,
                          const std::string& indent) {
  VariantRewrite r;
  const std::string cond = "(" + condition + ")";
  switch (variant) {
    case IfVariant::kOrZero:
      r.setup = {indent + "const int _SYS_ZERO = 0;"};
      r.new_if_head = indent + "if (_SYS_ZERO || " + cond + ")";
      break;
    case IfVariant::kAndOne:
      r.setup = {indent + "const int _SYS_ONE = 1;"};
      r.new_if_head = indent + "if (_SYS_ONE && " + cond + ")";
      break;
    case IfVariant::kHoistEq:
      r.setup = {indent + "int _SYS_STMT = " + cond + ";"};
      r.new_if_head = indent + "if (1 == _SYS_STMT)";
      break;
    case IfVariant::kHoistNegate:
      r.setup = {indent + "int _SYS_STMT = !" + cond + ";"};
      r.new_if_head = indent + "if (!_SYS_STMT)";
      break;
    case IfVariant::kFlagSet:
      r.setup = {indent + "int _SYS_VAL = 0;",
                 indent + "if " + cond + " { _SYS_VAL = 1; }"};
      r.new_if_head = indent + "if (_SYS_VAL)";
      break;
    case IfVariant::kFlagClear:
      r.setup = {indent + "int _SYS_VAL = 1;",
                 indent + "if " + cond + " { _SYS_VAL = 0; }"};
      r.new_if_head = indent + "if (!_SYS_VAL)";
      break;
    case IfVariant::kFlagAnd:
      r.setup = {indent + "int _SYS_VAL = 0;",
                 indent + "if " + cond + " { _SYS_VAL = 1; }"};
      r.new_if_head = indent + "if (_SYS_VAL && " + cond + ")";
      break;
    case IfVariant::kFlagOrNot:
      r.setup = {indent + "int _SYS_VAL = 1;",
                 indent + "if " + cond + " { _SYS_VAL = 0; }"};
      r.new_if_head = indent + "if (!_SYS_VAL || " + cond + ")";
      break;
  }
  return r;
}

std::vector<std::string> apply_variant(std::string_view line, const std::string& condition,
                                       IfVariant variant) {
  // The line must contain an `if (` head and the closing paren of the
  // condition must be on the same line (single-line conditions only).
  const std::size_t if_pos = line.find("if");
  if (if_pos == std::string_view::npos) return {};
  const std::size_t open = line.find('(', if_pos);
  if (open == std::string_view::npos) return {};
  // Match the closing parenthesis of the condition.
  std::size_t depth = 0;
  std::size_t close = std::string_view::npos;
  for (std::size_t i = open; i < line.size(); ++i) {
    if (line[i] == '(') ++depth;
    else if (line[i] == ')') {
      if (--depth == 0) {
        close = i;
        break;
      }
    }
  }
  if (close == std::string_view::npos) return {};

  const std::string indent(line.substr(0, line.find_first_not_of(" \t")));
  const std::string_view tail = line.substr(close + 1);  // " {" or ""

  VariantRewrite rewrite = rewrite_if(variant, condition, indent);
  rewrite.new_if_head += tail;
  std::vector<std::string> replacement = std::move(rewrite.setup);
  replacement.push_back(std::move(rewrite.new_if_head));
  return replacement;
}

}  // namespace patchdb::synth
