#include "lang/abstract.h"

#include <unordered_map>
#include <vector>

#include "lang/lexer.h"

namespace patchdb::lang {

std::string alpha_abstract_code(std::string_view source) {
  const std::vector<Token> tokens = lex(source);
  std::unordered_map<std::string, std::size_t> names;
  std::string out;
  auto append = [&out](std::string_view piece) {
    if (!out.empty()) out += ' ';
    out += piece;
  };
  for (const Token& t : tokens) {
    switch (t.kind) {
      case TokenKind::kIdentifier: {
        const auto [it, inserted] = names.emplace(t.text, names.size() + 1);
        std::string symbol = "V";
        symbol += std::to_string(it->second);
        append(symbol);
        break;
      }
      case TokenKind::kNumber: append("NUM"); break;
      case TokenKind::kString: append("STR"); break;
      case TokenKind::kCharLiteral: append("CHR"); break;
      case TokenKind::kPreprocessor: break;
      default: append(t.text); break;
    }
  }
  return out;
}

std::string abstract_code(std::span<const Token> tokens) {
  std::string out;
  auto append = [&out](std::string_view piece) {
    if (!out.empty()) out += ' ';
    out += piece;
  };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    switch (t.kind) {
      case TokenKind::kIdentifier: {
        const bool is_call = i + 1 < tokens.size() &&
                             tokens[i + 1].kind == TokenKind::kPunctuator &&
                             tokens[i + 1].text == "(";
        append(is_call ? "FUNC" : "ID");
        break;
      }
      case TokenKind::kNumber: append("NUM"); break;
      case TokenKind::kString: append("STR"); break;
      case TokenKind::kCharLiteral: append("CHR"); break;
      case TokenKind::kPreprocessor: break;  // dropped
      default: append(t.text); break;
    }
  }
  return out;
}

std::string abstract_code(std::string_view source) {
  return abstract_code(lex(source));
}

}  // namespace patchdb::lang
