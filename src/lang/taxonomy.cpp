#include "lang/taxonomy.h"

#include <cstdint>

#include "lang/lexer.h"
#include "lang/name_set.h"

namespace patchdb::lang {

OperatorClass classify_operator(std::string_view op) {
  using enum OperatorClass;
  if (op.size() == 1) {
    switch (op[0]) {
      case '<': case '>': return kRelational;
      case '!': return kLogical;
      case '&': case '|': case '^': case '~': return kBitwise;
      case '+': case '-': case '*': case '/': case '%': return kArithmetic;
      case '=': return kAssignment;
      default: return kOther;
    }
  }
  if (op.size() == 2) {
    if (op[1] == '=') {
      switch (op[0]) {
        case '=': case '!': case '<': case '>': return kRelational;
        case '+': case '-': case '*': case '/': case '%':
        case '&': case '|': case '^': return kAssignment;
        default: return kOther;
      }
    }
    if (op[0] == op[1]) {
      switch (op[0]) {
        case '&': case '|': return kLogical;
        case '<': case '>': return kBitwise;
        case '+': case '-': return kArithmetic;
        default: return kOther;
      }
    }
    return op == "or" ? kLogical : kOther;
  }
  if (op == "<=>") return kRelational;
  if (op == "and" || op == "not") return kLogical;
  if (op == "<<=" || op == ">>=") return kAssignment;
  return kOther;
}

namespace {

constexpr std::string_view kMemoryOps[] = {
    "malloc", "calloc", "realloc", "free", "new", "delete",
    "memcpy", "memmove", "memset", "memcmp", "mmap", "munmap",
    "strcpy", "strncpy", "strlcpy", "strcat", "strncat", "strlcat",
    "strdup", "strndup", "sprintf", "snprintf", "vsnprintf",
    "alloca", "kmalloc", "kzalloc", "kcalloc", "kfree", "vmalloc",
    "vfree", "kmem_cache_alloc", "kmem_cache_free", "brk", "sbrk",
    "xmalloc", "xfree", "g_malloc", "g_free", "av_malloc", "av_free",
    "OPENSSL_malloc", "OPENSSL_free", "sizeof",
};

const NameSet& memory_ops() {
  static const NameSet set = NameSet::of(kMemoryOps);
  return set;
}

}  // namespace

bool is_memory_operator(std::string_view name) {
  return !name.empty() && memory_ops().contains(name, name_hash(name));
}

SyntaxCounts count_syntax(const std::vector<Token>& tokens) {
  SyntaxCounts counts;
  NameSet seen_vars(tokens.size());

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    const bool next_is_paren = i + 1 < tokens.size() &&
                               tokens[i + 1].kind == TokenKind::kPunctuator &&
                               tokens[i + 1].text == "(";
    switch (t.kind) {
      case TokenKind::kKeyword:
        if (t.text == "if") ++counts.if_statements;
        if (t.text == "for" || t.text == "while" || t.text == "do") ++counts.loops;
        if (is_memory_operator(t.text)) ++counts.memory_ops;  // new/delete/sizeof
        break;
      case TokenKind::kIdentifier: {
        // One hash per identifier serves both lookups.
        const std::uint64_t hash = name_hash(t.text);
        if (memory_ops().contains(t.text, hash)) ++counts.memory_ops;
        if (next_is_paren) {
          ++counts.function_calls;
          // Function definition heuristic: `type name ( ... ) {` — the
          // token before the name is a type-ish token and a '{' follows
          // the matching ')'.
          if (i > 0 && (tokens[i - 1].kind == TokenKind::kKeyword ||
                        tokens[i - 1].kind == TokenKind::kIdentifier ||
                        tokens[i - 1].text == "*")) {
            std::size_t depth = 0;
            for (std::size_t j = i + 1; j < tokens.size(); ++j) {
              if (tokens[j].text == "(") ++depth;
              else if (tokens[j].text == ")") {
                if (--depth == 0) {
                  if (j + 1 < tokens.size() && tokens[j + 1].text == "{") {
                    ++counts.function_defs;
                  }
                  break;
                }
              }
            }
          }
        } else if (seen_vars.insert(t.text, hash)) {
          ++counts.variables;
        }
        break;
      }
      case TokenKind::kOperator:
        switch (classify_operator(t.text)) {
          case OperatorClass::kArithmetic: ++counts.arithmetic_ops; break;
          case OperatorClass::kRelational: ++counts.relational_ops; break;
          case OperatorClass::kLogical: ++counts.logical_ops; break;
          case OperatorClass::kBitwise: ++counts.bitwise_ops; break;
          default: break;
        }
        break;
      default:
        break;
    }
  }
  return counts;
}

SyntaxCounts count_syntax(std::string_view source) {
  return count_syntax(lex(source));
}

}  // namespace patchdb::lang
