#include "lang/abstract.h"

#include <unordered_map>
#include <vector>

#include "lang/lexer.h"

namespace patchdb::lang {

namespace {

std::vector<std::string> abstract_tokens(const std::vector<Token>& tokens) {
  std::vector<std::string> out;
  out.reserve(tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    switch (t.kind) {
      case TokenKind::kIdentifier: {
        const bool is_call = i + 1 < tokens.size() &&
                             tokens[i + 1].kind == TokenKind::kPunctuator &&
                             tokens[i + 1].text == "(";
        out.emplace_back(is_call ? "FUNC" : "ID");
        break;
      }
      case TokenKind::kNumber:
        out.emplace_back("NUM");
        break;
      case TokenKind::kString:
        out.emplace_back("STR");
        break;
      case TokenKind::kCharLiteral:
        out.emplace_back("CHR");
        break;
      case TokenKind::kPreprocessor:
        break;  // dropped
      default:
        out.push_back(t.text);
        break;
    }
  }
  return out;
}

}  // namespace

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

std::string abstract_code(std::string_view source) {
  const std::vector<Token> tokens = lex(source);
  const std::vector<std::string> abstracted = abstract_tokens(tokens);
  std::string out;
  for (std::size_t i = 0; i < abstracted.size(); ++i) {
    if (i != 0) out += ' ';
    out += abstracted[i];
  }
  return out;
}

}  // namespace patchdb::lang
