// Tests for the lang module: lexer, token abstraction, syntactic
// taxonomy counters, and the lightweight statement parser.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lang/abstract.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/taxonomy.h"
#include "lang/token.h"
#include "util/rng.h"

namespace patchdb {
namespace {

using lang::Token;
using lang::TokenKind;

std::vector<std::string> texts(const std::vector<Token>& tokens) {
  std::vector<std::string> out;
  for (const Token& t : tokens) out.push_back(t.text);
  return out;
}

// -------------------------------------------------------------- lexer --

TEST(Lexer, BasicStatement) {
  const auto tokens = lang::lex("int x = a + 42;");
  const std::vector<std::string> expected = {"int", "x", "=", "a", "+", "42", ";"};
  EXPECT_EQ(texts(tokens), expected);
  EXPECT_EQ(tokens[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[2].kind, TokenKind::kOperator);
  EXPECT_EQ(tokens[5].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens[6].kind, TokenKind::kPunctuator);
}

TEST(Lexer, MultiCharOperatorsLongestMatch) {
  const auto tokens = lang::lex("a <<= b >> c != d->e");
  const std::vector<std::string> expected = {"a", "<<=", "b", ">>", "c",
                                             "!=", "d", "->", "e"};
  EXPECT_EQ(texts(tokens), expected);
}

TEST(Lexer, CommentsDroppedByDefault) {
  const auto tokens = lang::lex("x = 1; // trailing\n/* block\ncomment */ y = 2;");
  const std::vector<std::string> expected = {"x", "=", "1", ";", "y", "=", "2", ";"};
  EXPECT_EQ(texts(tokens), expected);
}

TEST(Lexer, StringAndCharLiteralsWithEscapes) {
  const auto tokens = lang::lex(R"(s = "a \"quoted\" str"; c = '\n';)");
  ASSERT_EQ(tokens.size(), 8u);
  EXPECT_EQ(tokens[2].kind, TokenKind::kString);
  EXPECT_EQ(tokens[2].text, R"("a \"quoted\" str")");
  EXPECT_EQ(tokens[6].kind, TokenKind::kCharLiteral);
}

TEST(Lexer, UnterminatedStringStopsAtEol) {
  const auto tokens = lang::lex("s = \"unterminated\nnext;");
  EXPECT_EQ(tokens[2].kind, TokenKind::kString);
  // the lexer resumes on the next line
  EXPECT_EQ(tokens[3].text, "next");
}

TEST(Lexer, PreprocessorDirectiveIsSingleToken) {
  const auto tokens = lang::lex("#include <stdio.h>\nint x;");
  ASSERT_GE(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kPreprocessor);
  EXPECT_EQ(tokens[1].text, "int");
}

TEST(Lexer, PreprocessorContinuationLine) {
  const auto tokens = lang::lex("#define M(a) \\\n  (a + 1)\nx;");
  EXPECT_EQ(tokens[0].kind, TokenKind::kPreprocessor);
  EXPECT_EQ(tokens[1].text, "x");
}

TEST(Lexer, NumbersIncludingHexFloatExp) {
  const auto tokens = lang::lex("a = 0x7f + 1.5e-3 + 42u;");
  EXPECT_EQ(tokens[2].text, "0x7f");
  EXPECT_EQ(tokens[4].text, "1.5e-3");
  EXPECT_EQ(tokens[6].text, "42u");
}

TEST(Lexer, LineAndColumnTracking) {
  const auto tokens = lang::lex("a\n  b;");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].line, 1u);
  EXPECT_EQ(tokens[1].line, 2u);
  EXPECT_EQ(tokens[1].column, 3u);
}

TEST(Lexer, UnknownBytesDoNotBreakLexing) {
  const auto tokens = lang::lex("a \x01 b");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].kind, TokenKind::kUnknown);
}

TEST(Lexer, KeywordsRecognized) {
  EXPECT_TRUE(lang::is_keyword("if"));
  EXPECT_TRUE(lang::is_keyword("sizeof"));
  EXPECT_TRUE(lang::is_keyword("nullptr"));
  EXPECT_FALSE(lang::is_keyword("foobar"));
}

// ---------------------------------------------------------- abstract --

TEST(Abstract, MapsIdentifiersAndLiterals) {
  const std::string out = lang::abstract_code("len = strlen(buf) + 10;");
  EXPECT_EQ(out, "ID = FUNC ( ID ) + NUM ;");
}

TEST(Abstract, KeepsKeywordsAndOperators) {
  const std::string out = lang::abstract_code("if (p == NULL) return -1;");
  EXPECT_EQ(out, "if ( ID == NULL ) return - NUM ;");
}

TEST(Abstract, StringsAndChars) {
  const std::string out = lang::abstract_code("printf(\"%d\", 'x');");
  EXPECT_EQ(out, "FUNC ( STR , CHR ) ;");
}

TEST(Abstract, RenamingInvariance) {
  // The core property: renaming identifiers must not change the result.
  const std::string a = lang::abstract_code("if (count > limit) reset(count);");
  const std::string b = lang::abstract_code("if (n > max) clear(n);");
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------- taxonomy --

TEST(Taxonomy, OperatorClasses) {
  using lang::OperatorClass;
  EXPECT_EQ(lang::classify_operator("=="), OperatorClass::kRelational);
  EXPECT_EQ(lang::classify_operator("&&"), OperatorClass::kLogical);
  EXPECT_EQ(lang::classify_operator("<<"), OperatorClass::kBitwise);
  EXPECT_EQ(lang::classify_operator("+"), OperatorClass::kArithmetic);
  EXPECT_EQ(lang::classify_operator("+="), OperatorClass::kAssignment);
  EXPECT_EQ(lang::classify_operator("?"), OperatorClass::kOther);
}

TEST(Taxonomy, MemoryOperators) {
  EXPECT_TRUE(lang::is_memory_operator("malloc"));
  EXPECT_TRUE(lang::is_memory_operator("kfree"));
  EXPECT_TRUE(lang::is_memory_operator("strcpy"));
  EXPECT_FALSE(lang::is_memory_operator("printf"));
}

TEST(Taxonomy, CountSyntaxOnSnippet) {
  const lang::SyntaxCounts counts = lang::count_syntax(
      "if (a < b && p != NULL) {\n"
      "  for (i = 0; i < n; i++)\n"
      "    memcpy(dst, src, n);\n"
      "}\n");
  EXPECT_EQ(counts.if_statements, 1u);
  EXPECT_EQ(counts.loops, 1u);
  EXPECT_EQ(counts.memory_ops, 1u);
  EXPECT_EQ(counts.function_calls, 1u);
  EXPECT_GE(counts.relational_ops, 3u);  // <, !=, <
  EXPECT_EQ(counts.logical_ops, 1u);
  EXPECT_GE(counts.variables, 5u);  // a b p i n dst src (distinct, non-call)
}

TEST(Taxonomy, FunctionDefDetection) {
  const lang::SyntaxCounts counts =
      lang::count_syntax("static int foo(int a) {\n return a; \n}\n");
  EXPECT_EQ(counts.function_defs, 1u);
  const lang::SyntaxCounts call_only = lang::count_syntax("foo(1);");
  EXPECT_EQ(call_only.function_defs, 0u);
}

// ------------------------------------------------------------ parser --

constexpr const char* kSampleFile = R"(#include <stdio.h>

static int helper(struct ctx_state *ctx, size_t len)
{
    int val = 0;
    if (len == 0)
        return -1;
    if (ctx->mode > 2) {
        val = 1;
    } else {
        val = 2;
    }
    for (size_t i = 0; i < len; i++)
        val += i;
    return val;
}

int main(void)
{
    if (helper(0, 3) < 0) {
        return 1;
    }
    return 0;
}
)";

TEST(Parser, FindsFunctions) {
  const lang::ParsedFile parsed = lang::parse_source(kSampleFile);
  ASSERT_EQ(parsed.functions.size(), 2u);
  EXPECT_EQ(parsed.functions[0].name, "helper");
  EXPECT_EQ(parsed.functions[0].signature_line, 3u);
  EXPECT_EQ(parsed.functions[0].body_begin_line, 4u);
  EXPECT_EQ(parsed.functions[0].body_end_line, 16u);
  EXPECT_EQ(parsed.functions[1].name, "main");
}

TEST(Parser, FindsIfStatementsWithExtents) {
  const lang::ParsedFile parsed = lang::parse_source(kSampleFile);
  ASSERT_EQ(parsed.ifs.size(), 3u);

  const lang::IfStatementInfo& first = parsed.ifs[0];
  EXPECT_EQ(first.if_line, 6u);
  EXPECT_EQ(first.condition, "len == 0");
  EXPECT_FALSE(first.braced);
  EXPECT_EQ(first.stmt_end_line, 7u);

  const lang::IfStatementInfo& second = parsed.ifs[1];
  EXPECT_EQ(second.if_line, 8u);
  EXPECT_TRUE(second.braced);
  EXPECT_TRUE(second.has_else);
  EXPECT_EQ(second.stmt_end_line, 12u);
}

TEST(Parser, FindsLoops) {
  const lang::ParsedFile parsed = lang::parse_source(kSampleFile);
  ASSERT_EQ(parsed.loop_lines.size(), 1u);
  EXPECT_EQ(parsed.loop_lines[0], 13u);
}

TEST(Parser, EnclosingFunction) {
  const lang::ParsedFile parsed = lang::parse_source(kSampleFile);
  const lang::FunctionInfo* fn = lang::enclosing_function(parsed, 6);
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn->name, "helper");
  EXPECT_EQ(lang::enclosing_function(parsed, 1), nullptr);
}

TEST(Parser, IfsTouchingRange) {
  const lang::ParsedFile parsed = lang::parse_source(kSampleFile);
  const auto touching = lang::ifs_touching(parsed, 8, 9);
  ASSERT_EQ(touching.size(), 1u);
  EXPECT_EQ(touching[0]->if_line, 8u);
  EXPECT_TRUE(lang::ifs_touching(parsed, 2, 2).empty());
}

TEST(Parser, ElseIfChainYieldsTwoIfInfos) {
  const lang::ParsedFile parsed = lang::parse_source(
      "void f(void) {\n"
      "  if (a) {\n"
      "    x();\n"
      "  } else if (b) {\n"
      "    y();\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(parsed.ifs.size(), 2u);
  EXPECT_TRUE(parsed.ifs[0].has_else);
}

TEST(Parser, ToleratesIncompleteFragments) {
  // Patches are fragments; the parser must not crash on them.
  const lang::ParsedFile parsed =
      lang::parse_source("  if (x > 0)\n    do_thing(x);\n");
  ASSERT_EQ(parsed.ifs.size(), 1u);
  EXPECT_EQ(parsed.ifs[0].condition, "x > 0");
}

// Fuzz robustness: the lexer and statement parser process wild patch
// content; arbitrary bytes must never crash them, and lexing must
// consume every non-space byte into some token.
class LangFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LangFuzz, LexerAndParserSurviveRandomBytes) {
  util::Rng rng(GetParam() * 31337 + 11);
  std::string garbage;
  const std::size_t n = rng.index(400);
  for (std::size_t i = 0; i < n; ++i) {
    garbage += static_cast<char>(rng.index(256));
  }
  const auto tokens = lang::lex(garbage);
  std::size_t token_bytes = 0;
  for (const auto& t : tokens) token_bytes += t.text.size();
  EXPECT_LE(token_bytes, garbage.size());

  const lang::ParsedFile parsed = lang::parse_source(garbage);
  for (const auto& fn : parsed.functions) {
    EXPECT_LE(fn.signature_line, fn.body_end_line);
  }
  for (const auto& info : parsed.ifs) {
    EXPECT_LE(info.if_line, info.stmt_end_line);
  }
  (void)lang::count_syntax(garbage);
  (void)lang::abstract_code(garbage);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LangFuzz, ::testing::Range<std::uint64_t>(0, 60));

TEST(Parser, MultiLineConditionExtents) {
  const lang::ParsedFile parsed = lang::parse_source(
      "void f(void) {\n"
      "  if (a > 0 &&\n"
      "      b < 2) {\n"
      "    x();\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(parsed.ifs.size(), 1u);
  EXPECT_EQ(parsed.ifs[0].cond_begin_line, 2u);
  EXPECT_EQ(parsed.ifs[0].cond_end_line, 3u);
  EXPECT_EQ(parsed.ifs[0].stmt_end_line, 5u);
}

}  // namespace
}  // namespace patchdb
