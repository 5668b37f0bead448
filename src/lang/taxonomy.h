// Syntactic classification of tokens and token sequences: the counting
// primitives behind Table I's language-level features (if statements,
// loops, function calls, arithmetic/relational/logical/bitwise/memory
// operators, variables) and behind the patch-pattern categorizer.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "lang/token.h"

namespace patchdb::lang {

enum class OperatorClass {
  kArithmetic,  // + - * / % ++ -- (in expression position)
  kRelational,  // == != < > <= >=
  kLogical,     // && || !
  kBitwise,     // & | ^ ~ << >>
  kAssignment,  // = += -= ...
  kOther,
};

/// Classify an operator token's text. Ambiguous tokens (&, *, -, +) are
/// classified by their dominant use: & and | count as bitwise, * and -
/// and + as arithmetic; this matches how the paper's Python parser
/// counts operator categories without full type analysis.
OperatorClass classify_operator(std::string_view op);

/// True for identifiers naming memory-management routines (malloc, free,
/// memcpy, strcpy, new/delete, kmalloc, ...) — the paper's "memory
/// operators" feature family (39-42).
bool is_memory_operator(std::string_view name);

/// Counts of every Table I syntactic category over one code fragment.
struct SyntaxCounts {
  std::size_t if_statements = 0;
  std::size_t loops = 0;          // for, while, do
  std::size_t function_calls = 0; // identifier '(' — excluding keywords
  std::size_t arithmetic_ops = 0;
  std::size_t relational_ops = 0;
  std::size_t logical_ops = 0;
  std::size_t bitwise_ops = 0;
  std::size_t memory_ops = 0;
  std::size_t variables = 0;      // distinct non-call identifiers
  std::size_t function_defs = 0;  // heuristic: ident '(' ... ')' '{' at depth 0
};

/// Count syntactic categories in a fragment (e.g. the added lines of a
/// hunk). Robust to incomplete code.
SyntaxCounts count_syntax(std::string_view source);
SyntaxCounts count_syntax(const std::vector<Token>& tokens);

}  // namespace patchdb::lang
