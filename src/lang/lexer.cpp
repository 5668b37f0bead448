#include "lang/lexer.h"

#include <array>

#include "lang/name_set.h"

namespace patchdb::lang {

namespace {

constexpr std::string_view kKeywords[] = {
    // C
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "restrict", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
    "unsigned", "void", "volatile", "while", "_Bool", "_Complex",
    "_Atomic", "_Static_assert", "_Noreturn", "_Thread_local",
    // common C++ additions seen in patches
    "bool", "true", "false", "class", "namespace", "template", "typename",
    "public", "private", "protected", "virtual", "override", "final",
    "new", "delete", "this", "nullptr", "using", "try", "catch", "throw",
    "operator", "friend", "explicit", "mutable", "constexpr", "consteval",
    "constinit", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "noexcept", "decltype", "concept", "requires",
    "co_await", "co_return", "co_yield", "alignas", "alignof",
    "static_assert", "thread_local", "wchar_t", "char8_t", "char16_t",
    "char32_t", "and", "or", "not", "xor", "NULL",
};

}  // namespace

bool is_keyword(std::string_view word) {
  static const NameSet keywords = NameSet::of(kKeywords);
  return !word.empty() && keywords.contains(word, name_hash(word));
}

namespace {

struct Scanner {
  std::string_view src;
  std::size_t pos = 0;
  std::size_t line = 1;
  std::size_t column = 1;

  bool done() const noexcept { return pos >= src.size(); }
  char peek(std::size_t ahead = 0) const noexcept {
    return pos + ahead < src.size() ? src[pos + ahead] : '\0';
  }
  char advance() noexcept {
    const char c = src[pos++];
    if (c == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
    return c;
  }
  /// Step over `n` bytes known to hold no newline.
  void skip(std::size_t n) noexcept {
    pos += n;
    column += n;
  }
  /// The bytes from `start` to the current position.
  std::string since(std::size_t start) const {
    return std::string(src.substr(start, pos - start));
  }
};

// ASCII character classes. They answer as <cctype> does in the "C"
// locale, which the program never leaves, without a locale lookup.
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_alpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
bool is_alnum(char c) { return is_alpha(c) || is_digit(c); }
/// The whitespace besides '\n', which the scanner steps over one at a
/// time to count lines.
bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

bool is_ident_start(char c) { return is_alpha(c) || c == '_' || c == '$'; }
bool is_ident_cont(char c) { return is_alnum(c) || c == '_' || c == '$'; }
bool is_exponent(char c) { return c == 'e' || c == 'E' || c == 'p' || c == 'P'; }

// Multi-character operators, longest first within each leading char.
constexpr std::array<std::string_view, 36> kOperators3Plus = {
    "<<=", ">>=", "...", "->*", "<=>",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--", "+=", "-=",
    "*=", "/=", "%=", "&=", "|=", "^=", "->", "::", ".*", "##",
    "+", "-", "*", "/", "%", "=", "<", ">", "!",
};

constexpr std::string_view kSingleOps = "&|^~?.";
constexpr std::string_view kPunct = ":#";  // "::" and "##" are operators

/// The punctuators that begin no operator: one byte is the whole token.
bool is_plain_punct(char c) {
  switch (c) {
    case '(': case ')': case '{': case '}': case '[': case ']':
    case ';': case ',': case '@':
      return true;
    default:
      return false;
  }
}

/// Scan a string or char literal up to its closing quote or the end of
/// the line. Returns true when the source ends on the backslash of an
/// escape, which a following newline would complete.
bool scan_string(Scanner& s, char quote) {
  s.advance();  // opening quote
  while (!s.done()) {
    const char c = s.advance();
    if (c == '\\') {
      if (s.done()) return true;
      s.advance();  // escaped char, even if it is the quote
      continue;
    }
    if (c == quote || c == '\n') break;  // unterminated at EOL: stop
  }
  return false;
}

}  // namespace

std::vector<Token> lex(std::string_view source, bool& ends_open) {
  std::vector<Token> tokens;
  Scanner s{source};
  ends_open = false;

  while (!s.done()) {
    const char c = s.peek();
    const std::size_t tok_line = s.line;
    const std::size_t tok_col = s.column;
    const std::size_t start = s.pos;

    if (c == '\n') {
      s.advance();
      continue;
    }
    if (is_blank(c)) {
      std::size_t run = 1;
      while (is_blank(s.peek(run))) ++run;
      s.skip(run);
      continue;
    }

    if (is_plain_punct(c)) {
      s.skip(1);
      tokens.push_back(Token{TokenKind::kPunctuator, std::string(1, c), tok_line, tok_col});
      continue;
    }

    // Preprocessor directive: only when # begins the (trimmed) line.
    if (c == '#' && tok_col == 1) {
      std::string text;
      while (!s.done() && s.peek() != '\n') {
        // Line continuations keep the directive going.
        if (s.peek() == '\\' && s.peek(1) == '\n') {
          s.advance();
          s.advance();
          text += ' ';
          continue;
        }
        text += s.advance();
      }
      ends_open = s.done() && source.back() == '\\';
      tokens.push_back(Token{TokenKind::kPreprocessor, std::move(text), tok_line, tok_col});
      continue;
    }

    // Comments are skipped (an unterminated /* runs to the end).
    if (c == '/' && s.peek(1) == '/') {
      while (!s.done() && s.peek() != '\n') s.advance();
      continue;
    }
    if (c == '/' && s.peek(1) == '*') {
      s.advance();
      s.advance();
      ends_open = true;
      while (!s.done()) {
        if (s.peek() == '*' && s.peek(1) == '/') {
          s.advance();
          s.advance();
          ends_open = false;
          break;
        }
        s.advance();
      }
      continue;
    }

    if (is_ident_start(c)) {
      while (!s.done() && is_ident_cont(s.peek())) s.skip(1);
      std::string text = s.since(start);
      const TokenKind kind =
          is_keyword(text) ? TokenKind::kKeyword : TokenKind::kIdentifier;
      tokens.push_back(Token{kind, std::move(text), tok_line, tok_col});
      continue;
    }

    if (is_digit(c) || (c == '.' && is_digit(s.peek(1)))) {
      while (!s.done()) {
        const char d = s.peek();
        if (is_alnum(d) || d == '.' || d == '\'' ||
            ((d == '+' || d == '-') && is_exponent(source[s.pos - 1]))) {
          s.skip(1);
        } else {
          break;
        }
      }
      tokens.push_back(Token{TokenKind::kNumber, s.since(start), tok_line, tok_col});
      continue;
    }

    if (c == '"' || c == '\'') {
      ends_open = scan_string(s, c);
      const TokenKind kind = c == '"' ? TokenKind::kString : TokenKind::kCharLiteral;
      tokens.push_back(Token{kind, s.since(start), tok_line, tok_col});
      continue;
    }

    // Operators: try longest match from the table.
    bool matched = false;
    for (std::string_view op : kOperators3Plus) {
      if (op[0] == c && source.substr(s.pos, op.size()) == op) {
        s.skip(op.size());
        tokens.push_back(Token{TokenKind::kOperator, std::string(op), tok_line, tok_col});
        matched = true;
        break;
      }
    }
    if (matched) continue;

    if (kSingleOps.find(c) != std::string_view::npos) {
      s.skip(1);
      tokens.push_back(Token{TokenKind::kOperator, std::string(1, c), tok_line, tok_col});
      continue;
    }
    if (kPunct.find(c) != std::string_view::npos) {
      s.skip(1);
      tokens.push_back(Token{TokenKind::kPunctuator, std::string(1, c), tok_line, tok_col});
      continue;
    }

    s.advance();
    tokens.push_back(Token{TokenKind::kUnknown, std::string(1, c), tok_line, tok_col});
  }
  return tokens;
}

std::vector<Token> lex(std::string_view source) {
  bool ends_open = false;
  return lex(source, ends_open);
}

std::vector<std::string> lex_texts(std::string_view source) {
  std::vector<std::string> out;
  for (Token& t : lex(source)) out.push_back(std::move(t.text));
  return out;
}

}  // namespace patchdb::lang
