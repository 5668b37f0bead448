// Hand-written C/C++ lexer. Feature extraction (Table I), token
// abstraction, and the RNN token stream all start here.
#pragma once

#include <string_view>
#include <vector>

#include "lang/token.h"

namespace patchdb::lang {

/// Tokenize a source fragment. Comments are dropped; a # directive
/// becomes one kPreprocessor token. Never throws: unrecognized bytes
/// become kUnknown tokens so dirty patch content cannot break the
/// pipeline.
std::vector<Token> lex(std::string_view source);

/// lex(source), also reporting in `ends_open` whether the source ends
/// inside a construct that a following line would continue: an
/// unterminated /* comment, or a backslash as the last byte of a string
/// literal, a char literal or a # directive. When `ends_open` is false,
/// lexing source + '\n' + rest gives lex(source) followed by lex(rest),
/// with rest's lines shifted, except that a string or char literal left
/// unterminated at the end of source also holds the '\n'.
std::vector<Token> lex(std::string_view source, bool& ends_open);

/// Tokenize and return only the token texts (the RNN input form).
std::vector<std::string> lex_texts(std::string_view source);

}  // namespace patchdb::lang
