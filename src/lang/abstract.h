// Token abstraction: map identifiers and literals onto canonical symbols
// so that two hunks that differ only in naming compare as equal. Table I
// computes the hunk-level Levenshtein features twice — "before token
// abstraction" and "after token abstraction" — and counts identical
// hunks under both views (features 49-56).
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "lang/token.h"

namespace patchdb::lang {

/// Lex then abstract, returning one space-joined canonical string. This
/// is the "after token abstraction" text used for the Levenshtein
/// features and same-hunk detection: identifiers become "ID", or "FUNC"
/// when a '(' follows (keeping the call structure), numbers "NUM",
/// strings "STR", char literals "CHR"; keywords, operators and
/// punctuation stay; preprocessor lines are dropped.
std::string abstract_code(std::string_view source);

/// abstract_code over tokens already lexed: abstract_code(source) equals
/// abstract_code(lex(source)). A '(' beyond the span's end does not make
/// its last identifier a call.
std::string abstract_code(std::span<const Token> tokens);

/// Alpha-renaming abstraction: identifiers map to V1, V2, ... in first-
/// occurrence order (consistently within the fragment), literals to
/// NUM/STR/CHR. Unlike abstract_code this preserves which positions
/// share an identifier — `f(a, a)` and `f(a, b)` stay distinct — which
/// is what near-duplicate fingerprinting needs.
std::string alpha_abstract_code(std::string_view source);

}  // namespace patchdb::lang
