// Token model for the C/C++ lexer. Patches are not complete programs, so
// the lexer is line-tolerant: it can tokenize any fragment (a hunk's
// added lines, a whole file) without needing the surrounding context.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace patchdb::lang {

enum class TokenKind {
  kIdentifier,
  kKeyword,
  kNumber,
  kString,
  kCharLiteral,
  kOperator,     // +, -, ==, &&, <<=, ...
  kPunctuator,   // ( ) { } [ ] ; , : :: ...
  kPreprocessor, // a whole # directive line
  kUnknown,
};

struct Token {
  TokenKind kind = TokenKind::kUnknown;
  std::string text;
  std::size_t line = 0;    // 1-based line of the first character
  std::size_t column = 0;  // 1-based column of the first character

  friend bool operator==(const Token&, const Token&) = default;
};

/// True for C/C++ keywords (the union of C11 and common C++ keywords;
/// patches mix both).
bool is_keyword(std::string_view word);

}  // namespace patchdb::lang
