// Tests for the text-mining baseline (message tokenization, keyword
// rule, multinomial naive Bayes) and the vulnerable-clone scanner.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/clone.h"
#include "corpus/repo.h"
#include "diff/myers.h"
#include "text/textmine.h"
#include "util/rng.h"

namespace patchdb {
namespace {

// ---------------------------------------------------------------- text --

TEST(TextWords, TokenizesLowercaseAlnum) {
  const auto w = text::words("Fix CVE-2019-20912: stack underflow!");
  const std::vector<std::string> expected = {"fix", "cve", "2019", "20912",
                                             "stack", "underflow"};
  EXPECT_EQ(w, expected);
}

TEST(TextWords, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(text::words("").empty());
  EXPECT_TRUE(text::words("!!! --- ...").empty());
}

TEST(Keywords, MatchesSecurityVocabulary) {
  EXPECT_TRUE(text::mentions_security("Fix buffer OVERFLOW in parser"));
  EXPECT_TRUE(text::mentions_security("fixes CVE-2020-1234"));
  EXPECT_TRUE(text::mentions_security("prevent use-after-free"));
  EXPECT_FALSE(text::mentions_security("rename variable for clarity"));
  EXPECT_FALSE(text::mentions_security("add tracing hooks"));
}

TEST(TextNaiveBayes, LearnsSimpleSeparation) {
  std::vector<std::string> messages;
  std::vector<int> labels;
  for (int i = 0; i < 30; ++i) {
    messages.push_back("fix overflow in parser module " + std::to_string(i));
    labels.push_back(1);
    messages.push_back("add new feature to renderer " + std::to_string(i));
    labels.push_back(0);
  }
  text::TextNaiveBayes nb;
  nb.fit(messages, labels);
  EXPECT_GT(nb.vocabulary_size(), 4u);
  EXPECT_EQ(nb.predict("overflow fix in the parser"), 1);
  EXPECT_EQ(nb.predict("new renderer feature"), 0);
}

TEST(TextNaiveBayes, UnknownWordsAreNeutral) {
  std::vector<std::string> messages = {"alpha alpha", "beta beta"};
  std::vector<int> labels = {1, 0};
  text::TextNaiveBayes nb(1);
  nb.fit(messages, labels);
  // A message of entirely novel words must fall back to the prior (0.5
  // here), not be swung by <unk> asymmetry.
  EXPECT_NEAR(nb.predict_score("zeta theta omega"), 0.5, 0.05);
}

TEST(TextNaiveBayes, UnfittedReturnsNeutral) {
  const text::TextNaiveBayes nb;
  EXPECT_DOUBLE_EQ(nb.predict_score("anything"), 0.5);
}

TEST(TextNaiveBayes, SizeMismatchThrows) {
  text::TextNaiveBayes nb;
  const std::vector<std::string> messages = {"a"};
  const std::vector<int> labels = {1, 0};
  EXPECT_THROW(nb.fit(messages, labels), std::invalid_argument);
}

TEST(Corpus, EuphemizedSecurityCommitsLookNeutral) {
  util::Rng rng(9);
  corpus::CommitOptions opt;
  opt.euphemize_prob = 1.0;
  std::size_t flagged = 0;
  for (int i = 0; i < 40; ++i) {
    const auto record =
        corpus::make_commit(rng, "r", corpus::PatchType::kBoundCheck, opt);
    flagged += text::mentions_security(record.patch.message);
  }
  EXPECT_EQ(flagged, 0u);  // euphemisms never trip the keyword rule
}

// --------------------------------------------------------------- clone --

const std::vector<std::string> kVulnerable = {
    "int idx = hdr->len;",
    "char buf[32];",
    "memcpy(buf, hdr->data, idx);",
    "return buf[0];",
};

TEST(CloneScanner, FindsExactClone) {
  core::CloneScanner scanner;
  ASSERT_TRUE(scanner.add_signature("CVE-1", kVulnerable));
  std::vector<std::string> target = {"void f(void)", "{"};
  target.insert(target.end(), kVulnerable.begin(), kVulnerable.end());
  target.push_back("}");
  const auto matches = scanner.scan(target);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].origin, "CVE-1");
  EXPECT_EQ(matches[0].line, 3u);
}

TEST(CloneScanner, FindsRenamedClone) {
  core::CloneScanner scanner;
  ASSERT_TRUE(scanner.add_signature("CVE-1", kVulnerable));
  const std::vector<std::string> renamed = {
      "prelude();",
      "int cursor = pkt->size;",
      "char scratch[32];",
      "memcpy(scratch, pkt->payload, cursor);",
      "return scratch[0];",
  };
  const auto matches = scanner.scan(renamed);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].line, 2u);
}

TEST(CloneScanner, StructuralChangeDoesNotMatch) {
  core::CloneScanner scanner;
  ASSERT_TRUE(scanner.add_signature("CVE-1", kVulnerable));
  // The patched form (a guard inserted) must NOT match the vulnerable
  // signature.
  std::vector<std::string> patched = kVulnerable;
  patched.insert(patched.begin() + 2, "if (idx > 32) return -1;");
  EXPECT_TRUE(scanner.scan(patched).empty());
}

TEST(CloneScanner, TinySignaturesRejected) {
  core::CloneScanner scanner(/*min_lines=*/3);
  EXPECT_FALSE(scanner.add_signature("x", {"return 0;"}));
  EXPECT_EQ(scanner.signature_count(), 0u);
}

TEST(CloneScanner, BlankAndBraceLinesIgnored) {
  core::CloneScanner scanner;
  ASSERT_TRUE(scanner.add_signature("CVE-1", kVulnerable));
  // Same code, different blank-line/brace layout.
  const std::vector<std::string> spaced = {
      "int idx = hdr->len;", "",      "char buf[32];",
      "{",                   "memcpy(buf, hdr->data, idx);",
      "}",                   "return buf[0];",
  };
  EXPECT_EQ(scanner.scan(spaced).size(), 1u);
}

TEST(CloneScanner, AddPatchBuildsSignaturesFromPreImages) {
  // A patch removing vulnerable lines yields a scannable signature.
  std::vector<std::string> before = {"void g(void) {"};
  before.insert(before.end(), kVulnerable.begin(), kVulnerable.end());
  before.push_back("}");
  std::vector<std::string> after = before;
  after[3] = "memcpy(buf, hdr->data, idx > 32 ? 32 : idx);";

  diff::Patch patch;
  patch.commit = std::string(40, 'c');
  patch.files.push_back(
      diff::diff_file("f.c", diff::line_views(before), diff::line_views(after)));

  core::CloneScanner scanner;
  EXPECT_GE(scanner.add_patch(patch), 1u);
  const auto matches = scanner.scan(before);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].origin, patch.commit);
  // The fixed file must not match.
  EXPECT_TRUE(scanner.scan(after).empty());
}

TEST(CloneScanner, PureAdditionPatchYieldsNoSignature) {
  diff::Patch patch;
  patch.commit = std::string(40, 'd');
  diff::FileDiff fd;
  fd.old_path = fd.new_path = "f.c";
  diff::Hunk h;
  h.old_start = 1;
  h.old_count = 1;
  h.new_start = 1;
  h.new_count = 2;
  h.lines = {{diff::LineKind::kAdded, "if (p == NULL) return;"},
             {diff::LineKind::kContext, "use(p);"}};
  fd.hunks.push_back(h);
  patch.files.push_back(fd);

  core::CloneScanner scanner;
  EXPECT_EQ(scanner.add_patch(patch), 0u);
}

}  // namespace
}  // namespace patchdb
