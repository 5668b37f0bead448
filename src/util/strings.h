// String helpers shared across the diff parser, lexer, and corpus
// generators. All functions are allocation-conscious: views in, strings
// out only where ownership is needed.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace patchdb::util {

/// Split on a single character; keeps empty fields ("a,,b" -> 3 fields).
std::vector<std::string_view> split(std::string_view text, char sep);

/// Split into lines, treating "\n" as terminator. A trailing newline does
/// not produce a final empty line ("a\nb\n" -> {"a","b"}). A line's
/// trailing '\r' is stripped — including on a final unterminated line,
/// so CRLF text parses the same with or without a trailing newline.
std::vector<std::string_view> split_lines(std::string_view text);

/// Split on runs of whitespace; no empty fields.
std::vector<std::string_view> split_ws(std::string_view text);

std::string_view trim(std::string_view text);
std::string_view trim_left(std::string_view text);
std::string_view trim_right(std::string_view text);

std::string to_lower(std::string_view text);

std::string join(const std::vector<std::string>& parts, std::string_view sep);
std::string join_views(const std::vector<std::string_view>& parts, std::string_view sep);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);
bool contains(std::string_view text, std::string_view needle);

/// Replace every occurrence of `from` with `to`.
std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to);

/// File extension including the dot, lower-cased ("src/a.CPP" -> ".cpp");
/// empty when there is none.
std::string extension(std::string_view path);

/// The one strict decimal parser: `text` must be all digits, with no
/// sign or space, and at most SIZE_MAX. Returns false, leaving `out`
/// untouched, on anything else (empty text included).
bool parse_size(std::string_view text, std::size_t& out);

/// Render `n` as a short human string: 950 -> "950", 6'200'000 -> "6.2M".
std::string human_count(std::size_t n);

}  // namespace patchdb::util
