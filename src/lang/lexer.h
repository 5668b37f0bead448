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

/// Tokenize and return only the token texts (the RNN input form).
std::vector<std::string> lex_texts(std::string_view source);

}  // namespace patchdb::lang
