// Tests for the lang module: lexer, token abstraction, syntactic
// taxonomy counters, and the lightweight statement parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "corpus/world.h"
#include "lang/abstract.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/taxonomy.h"
#include "lang/token.h"
#include "util/hash.h"
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

  // Every keyword the lexer lists, and three near-misses of each: the
  // keyword less its last byte, with its first letter's case flipped,
  // and with a trailing '_'. Generated code never produces most of
  // these, so the token-stream pin cannot stand in for this list.
  const std::set<std::string_view> keywords = {
      "auto", "break", "case", "char", "const", "continue", "default", "do",
      "double", "else", "enum", "extern", "float", "for", "goto", "if",
      "inline", "int", "long", "register", "restrict", "return", "short",
      "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
      "unsigned", "void", "volatile", "while", "_Bool", "_Complex",
      "_Atomic", "_Static_assert", "_Noreturn", "_Thread_local",
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
  EXPECT_EQ(keywords.size(), 92u);
  for (const std::string_view keyword : keywords) {
    EXPECT_TRUE(lang::is_keyword(keyword)) << keyword;
    std::string flipped(keyword);
    const auto letter = std::find_if(flipped.begin(), flipped.end(), [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    });
    ASSERT_NE(letter, flipped.end()) << keyword;
    *letter = static_cast<char>(*letter ^ 0x20);
    for (const std::string& miss :
         {std::string(keyword.substr(0, keyword.size() - 1)), flipped,
          std::string(keyword) + "_"}) {
      if (keywords.contains(miss)) continue;
      EXPECT_FALSE(lang::is_keyword(miss)) << miss << " (near " << keyword << ")";
    }
  }
  EXPECT_FALSE(lang::is_keyword(""));
}

// Each byte the lexer's fast path singles out, next to the operators it
// could begin.
TEST(Lexer, ColonAndScopeBoundary) {
  const auto tokens = lang::lex("a ? b : c; std::x; a:::b");
  const std::vector<std::string> expected = {"a", "?", "b", ":",  "c", ";", "std",
                                             "::", "x", ";", "a", "::", ":", "b"};
  ASSERT_EQ(texts(tokens), expected);
  EXPECT_EQ(tokens[3].kind, TokenKind::kPunctuator);
  EXPECT_EQ(tokens[7].kind, TokenKind::kOperator);
  EXPECT_EQ(tokens[11].kind, TokenKind::kOperator);
  EXPECT_EQ(tokens[12].kind, TokenKind::kPunctuator);
  EXPECT_EQ(tokens[12].column, 23u);
}

TEST(Lexer, HashAndPasteBoundary) {
  const auto tokens = lang::lex("#if X\na ## b # c\n  # d");
  const std::vector<std::string> expected = {"#if X", "a", "##", "b", "#", "c", "#", "d"};
  ASSERT_EQ(texts(tokens), expected);
  EXPECT_EQ(tokens[0].kind, TokenKind::kPreprocessor);  // # at column 1
  EXPECT_EQ(tokens[2].kind, TokenKind::kOperator);
  EXPECT_EQ(tokens[4].kind, TokenKind::kPunctuator);
  EXPECT_EQ(tokens[6].kind, TokenKind::kPunctuator);  // indented: not a directive
  EXPECT_EQ(tokens[6].line, 3u);
  EXPECT_EQ(tokens[6].column, 3u);
}

TEST(Lexer, DotForms) {
  const auto tokens = lang::lex("a.b f(...) p .* q .. .5 x.");
  const std::vector<std::string> expected = {"a", ".", "b", "f", "(", "...", ")", "p",
                                             ".*", "q", ".", ".", ".5", "x", "."};
  ASSERT_EQ(texts(tokens), expected);
  EXPECT_EQ(tokens[1].kind, TokenKind::kOperator);
  EXPECT_EQ(tokens[5].kind, TokenKind::kOperator);
  EXPECT_EQ(tokens[8].kind, TokenKind::kOperator);
  EXPECT_EQ(tokens[12].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens.back().kind, TokenKind::kOperator);
}

TEST(Lexer, PlainPunctuators) {
  const auto tokens = lang::lex("(){}[];,@\n @x");
  const std::vector<std::string> expected = {"(", ")", "{", "}", "[", "]",
                                             ";", ",", "@", "@", "x"};
  ASSERT_EQ(texts(tokens), expected);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(tokens[i].kind, TokenKind::kPunctuator) << i;
    EXPECT_EQ(tokens[i].text.size(), 1u) << i;
  }
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(tokens[i].line, 1u) << i;
    EXPECT_EQ(tokens[i].column, i + 1) << i;
  }
  EXPECT_EQ(tokens[9].line, 2u);
  EXPECT_EQ(tokens[9].column, 2u);
  EXPECT_EQ(tokens[10].column, 3u);
}

// The end states a following line would continue, and their neighbours
// that it would not.
TEST(Lexer, ReportsOpenEnd) {
  const std::pair<const char*, bool> cases[] = {
      {"x = 1; /* open", true},
      {"x = 1; /* closed */", false},
      {"/*/", true},
      {"s = \"abc\\", true},
      {"c = '\\", true},
      {"s = \"abc\\\\", false},  // the backslash is itself escaped
      {"s = \"abc", false},      // unterminated, but the newline ends it
      {"#define M(x) \\", true},
      {"#define M(x) \\\\", true},  // a directive has no escapes
      {"#define M(x) \\\n  (x)", false},
      {"x = 1; // comment \\", false},
      {"a \\", false},
      {"", false},
  };
  for (const auto& [source, open] : cases) {
    bool ends_open = !open;
    lang::lex(source, ends_open);
    EXPECT_EQ(ends_open, open) << source;
  }
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

// The string-compare chain classify_operator replaced, as its oracle.
lang::OperatorClass compare_chain_class(std::string_view op) {
  using lang::OperatorClass;
  if (op == "==" || op == "!=" || op == "<" || op == ">" || op == "<=" ||
      op == ">=" || op == "<=>") {
    return OperatorClass::kRelational;
  }
  if (op == "&&" || op == "||" || op == "!" || op == "and" || op == "or" ||
      op == "not") {
    return OperatorClass::kLogical;
  }
  if (op == "&" || op == "|" || op == "^" || op == "~" || op == "<<" ||
      op == ">>") {
    return OperatorClass::kBitwise;
  }
  if (op == "+" || op == "-" || op == "*" || op == "/" || op == "%" ||
      op == "++" || op == "--") {
    return OperatorClass::kArithmetic;
  }
  if (op == "=" || op == "+=" || op == "-=" || op == "*=" || op == "/=" ||
      op == "%=" || op == "&=" || op == "|=" || op == "^=" || op == "<<=" ||
      op == ">>=") {
    return OperatorClass::kAssignment;
  }
  return OperatorClass::kOther;
}

// Every string of up to three characters over the operator characters
// and the letters of and/or/not, plus a few longer ones.
TEST(Taxonomy, ClassifyOperatorMatchesCompareChain) {
  const std::string_view alphabet = "<>=!&|^~+-*/%?.:#anodrtx";
  std::vector<std::string> ops = {"", "<<==", "<=>=", "andx", "nota", "->*", "..."};
  for (const char a : alphabet) {
    ops.emplace_back(1, a);
    for (const char b : alphabet) {
      ops.push_back(std::string{a, b});
      for (const char c : alphabet) ops.push_back(std::string{a, b, c});
    }
  }
  for (const std::string& op : ops) {
    EXPECT_EQ(lang::classify_operator(op), compare_chain_class(op)) << "'" << op << "'";
  }
}

// The lookup table against a plain set of the same names, over the names
// themselves, their one-character edits, prefixes and suffixes, and
// random identifiers.
TEST(Taxonomy, MemoryOperatorLookupIsExact) {
  const std::vector<std::string> names = {
      "malloc", "calloc", "realloc", "free", "new", "delete",
      "memcpy", "memmove", "memset", "memcmp", "mmap", "munmap",
      "strcpy", "strncpy", "strlcpy", "strcat", "strncat", "strlcat",
      "strdup", "strndup", "sprintf", "snprintf", "vsnprintf",
      "alloca", "kmalloc", "kzalloc", "kcalloc", "kfree", "vmalloc",
      "vfree", "kmem_cache_alloc", "kmem_cache_free", "brk", "sbrk",
      "xmalloc", "xfree", "g_malloc", "g_free", "av_malloc", "av_free",
      "OPENSSL_malloc", "OPENSSL_free", "sizeof",
  };
  const std::set<std::string> oracle(names.begin(), names.end());
  std::vector<std::string> inputs = {"", "printf", "kmem_cache_allocx", "Malloc"};
  for (const std::string& name : names) {
    inputs.push_back(name);
    for (std::size_t i = 0; i <= name.size(); ++i) {
      inputs.push_back(name.substr(0, i));
      inputs.push_back(name.substr(i));
      inputs.push_back(name.substr(0, i) + "_" + name.substr(i));
      if (i < name.size()) {
        std::string edited = name;
        edited[i] = static_cast<char>(edited[i] ^ 1);
        inputs.push_back(edited);
      }
    }
  }
  util::Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    std::string word;
    const std::size_t n = rng.index(20);
    for (std::size_t j = 0; j < n; ++j) {
      word += "abcdefgilmnoprstuvxyz_"[rng.index(22)];
    }
    inputs.push_back(word);
  }
  for (const std::string& input : inputs) {
    EXPECT_EQ(lang::is_memory_operator(input), oracle.contains(input)) << "'" << input << "'";
  }
}

// Thousands of identifiers sharing their first and last bytes, so the
// distinct-variable set probes past colliding slots; the counts must
// equal a plain set's.
TEST(Taxonomy, CountsDistinctVariablesExactly) {
  util::Rng rng(37);
  for (int round = 0; round < 20; ++round) {
    std::string source;
    std::set<std::string> variables;
    std::size_t memory_ops = 0;
    const std::size_t statements = 1 + rng.index(400);
    for (std::size_t i = 0; i < statements; ++i) {
      const std::string name = "buffer_" + std::to_string(rng.index(300)) + "_len";
      const std::string other = rng.chance(0.1) ? "memcpy" : "v" + std::to_string(rng.index(40));
      source += name + " = " + other + ";\n";
      variables.insert(name);
      if (other == "memcpy") {
        ++memory_ops;
      } else {
        variables.insert(other);
      }
    }
    const lang::SyntaxCounts counts = lang::count_syntax(source);
    EXPECT_EQ(counts.variables, variables.size() + (memory_ops > 0 ? 1 : 0))
        << "round " << round;
    EXPECT_EQ(counts.memory_ops, memory_ops) << "round " << round;
  }
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

// The random bytes of fuzz case `seed`.
std::string fuzz_bytes(std::uint64_t seed) {
  util::Rng rng(seed * 31337 + 11);
  std::string garbage;
  const std::size_t n = rng.index(400);
  for (std::size_t i = 0; i < n; ++i) {
    garbage += static_cast<char>(rng.index(256));
  }
  return garbage;
}

// Fuzz robustness: the lexer and statement parser process wild patch
// content; arbitrary bytes must never crash them, and lexing must
// consume every non-space byte into some token.
class LangFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LangFuzz, LexerAndParserSurviveRandomBytes) {
  const std::string garbage = fuzz_bytes(GetParam());
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

  // lexer.h's join contract: a head that does not end open, a newline and
  // a tail lex as the head's tokens then the tail's, the tail's lines
  // shifted; only a literal left open at the head's end also holds the
  // newline.
  const std::size_t split = util::Rng(GetParam()).index(garbage.size() + 1);
  const std::string head = garbage.substr(0, split);
  const std::string tail = garbage.substr(split);
  bool ends_open = false;
  const auto head_tokens = lang::lex(head, ends_open);
  if (ends_open) return;
  const auto tail_tokens = lang::lex(tail);
  const auto joined = lang::lex(head + "\n" + tail);
  ASSERT_EQ(joined.size(), head_tokens.size() + tail_tokens.size());
  for (std::size_t i = 0; i < head_tokens.size(); ++i) {
    Token expected = head_tokens[i];
    const bool last_literal = i + 1 == head_tokens.size() &&
                              (expected.kind == TokenKind::kString ||
                               expected.kind == TokenKind::kCharLiteral);
    if (last_literal && joined[i].text == expected.text + "\n") expected.text += '\n';
    EXPECT_EQ(joined[i], expected) << "head token " << i;
  }
  const std::size_t shift =
      static_cast<std::size_t>(std::count(head.begin(), head.end(), '\n')) + 1;
  for (std::size_t j = 0; j < tail_tokens.size(); ++j) {
    Token expected = tail_tokens[j];
    expected.line += shift;
    EXPECT_EQ(joined[head_tokens.size() + j], expected) << "tail token " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LangFuzz, ::testing::Range<std::uint64_t>(0, 60));

// The token stream, pinned: (kind, line, column, text) of every token the
// lexer returns for every hunk side of a small simulated world, the 60
// LangFuzz inputs and tests/data/null_guard.patch, hashed. The constants
// were recorded with the lexer before its fast path; any token that moves
// changes them.
TEST(Lexer, TokenStreamPinned) {
  std::uint64_t hash = util::fnv1a64("");
  std::size_t count = 0;
  auto add = [&](std::string_view source) {
    for (const Token& t : lang::lex(source)) {
      hash = util::fnv1a64(std::to_string(static_cast<int>(t.kind)) + ":" +
                               std::to_string(t.line) + ":" +
                               std::to_string(t.column) + ":" +
                               std::to_string(t.text.size()) + ":",
                           hash);
      hash = util::fnv1a64(t.text, hash);
      ++count;
    }
  };

  corpus::WorldConfig config;
  config.repos = 3;
  config.nvd_security = 12;
  config.wild_pool = 60;
  config.seed = 5;
  const corpus::World world = corpus::build_world(config);
  for (const auto* records : {&world.nvd_security, &world.wild}) {
    for (const corpus::CommitRecord& r : *records) {
      for (const diff::FileDiff& fd : r.patch.files) {
        for (const diff::Hunk& hunk : fd.hunks) {
          add(hunk.removed_text());
          add(hunk.added_text());
        }
      }
    }
  }
  for (std::uint64_t seed = 0; seed < 60; ++seed) add(fuzz_bytes(seed));
  std::ifstream in(std::string(PATCHDB_TEST_DATA_DIR) + "/null_guard.patch",
                   std::ios::binary);
  ASSERT_TRUE(in) << "cannot open null_guard.patch";
  add(std::string(std::istreambuf_iterator<char>(in), {}));

  EXPECT_EQ(count, 8914u);
  EXPECT_EQ(util::to_hex(hash), "10736151de536c5e");
}

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
