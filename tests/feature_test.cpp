// Tests for the 60-dimension Table I feature extractor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/mutate.h"
#include "corpus/repo.h"
#include "corpus/world.h"
#include "diff/parse.h"
#include "feature/features.h"
#include "lang/abstract.h"
#include "lang/taxonomy.h"
#include "util/hash.h"
#include "util/levenshtein.h"
#include "util/rng.h"

namespace patchdb {
namespace {

diff::Patch simple_patch() {
  const std::string text =
      "commit 1234567890123456789012345678901234567890\n"
      "\n"
      "    add a bound check\n"
      "\n"
      "diff --git a/a.c b/a.c\n"
      "--- a/a.c\n"
      "+++ b/a.c\n"
      "@@ -10,5 +10,7 @@ static int parse_header(struct req *r)\n"
      " int n = r->len;\n"
      "+if (n > 64)\n"
      "+    return -1;\n"
      " memcpy(buf, r->data, n);\n"
      "-old_call(r);\n"
      "+new_call(r, n);\n"
      " return n;\n"
      " done:\n";
  return diff::parse_patch(text);
}

TEST(Features, NamesCoverAllDimensions) {
  const auto names = feature::feature_names();
  EXPECT_EQ(names.size(), feature::kFeatureCount);
  EXPECT_EQ(names[0], "changed_lines");
  EXPECT_EQ(names[59], "affected_funcs_pct");
}

TEST(Features, BasicCountsOnKnownPatch) {
  const feature::FeatureVector v = feature::extract(simple_patch());
  EXPECT_DOUBLE_EQ(v[0], 4.0);   // changed lines: 3 added + 1 removed
  EXPECT_DOUBLE_EQ(v[1], 1.0);   // hunks
  EXPECT_DOUBLE_EQ(v[2], 3.0);   // added lines
  EXPECT_DOUBLE_EQ(v[3], 1.0);   // removed lines
  EXPECT_DOUBLE_EQ(v[4], 4.0);   // total
  EXPECT_DOUBLE_EQ(v[5], 2.0);   // net
}

TEST(Features, IfAndCallCounts) {
  const feature::FeatureVector v = feature::extract(simple_patch());
  EXPECT_DOUBLE_EQ(v[10], 1.0);  // added ifs
  EXPECT_DOUBLE_EQ(v[11], 0.0);  // removed ifs
  EXPECT_DOUBLE_EQ(v[12], 1.0);  // total ifs
  EXPECT_DOUBLE_EQ(v[13], 1.0);  // net ifs
  EXPECT_DOUBLE_EQ(v[18], 1.0);  // added calls: new_call
  EXPECT_DOUBLE_EQ(v[19], 1.0);  // removed calls: old_call
  EXPECT_DOUBLE_EQ(v[21], 0.0);  // net calls
}

TEST(Features, RelationalOperatorQuads) {
  const feature::FeatureVector v = feature::extract(simple_patch());
  EXPECT_DOUBLE_EQ(v[26], 1.0);  // added relational: >
  EXPECT_DOUBLE_EQ(v[27], 0.0);
  EXPECT_DOUBLE_EQ(v[28], 1.0);
  EXPECT_DOUBLE_EQ(v[29], 1.0);
}

TEST(Features, LevenshteinFeaturesNonZeroWhenHunkChanges) {
  const feature::FeatureVector v = feature::extract(simple_patch());
  EXPECT_GT(v[48], 0.0);             // mean raw distance
  EXPECT_EQ(v[49], v[50]);           // single hunk: min == max
  EXPECT_EQ(v[48], v[49]);           // single hunk: mean == min
  EXPECT_GT(v[51], 0.0);             // abstracted distance also > 0
  EXPECT_DOUBLE_EQ(v[54], 0.0);      // no identical hunks
}

TEST(Features, SameHunkDetectionAfterAbstraction) {
  // Removal and addition differ only by identifier names -> identical
  // after abstraction but different raw.
  const std::string text =
      "commit 1234567890123456789012345678901234567890\n"
      "\n"
      "diff --git a/a.c b/a.c\n"
      "--- a/a.c\n"
      "+++ b/a.c\n"
      "@@ -1,2 +1,2 @@\n"
      " ctx_t c;\n"
      "-foo(alpha, 1);\n"
      "+bar(beta, 2);\n";
  const feature::FeatureVector v = feature::extract(diff::parse_patch(text));
  EXPECT_DOUBLE_EQ(v[54], 0.0);  // raw differs
  EXPECT_DOUBLE_EQ(v[55], 1.0);  // abstracted identical
  EXPECT_GT(v[48], 0.0);
  EXPECT_DOUBLE_EQ(v[51], 0.0);  // abstracted distance is zero
}

TEST(Features, AffectedFilesAndFunctions) {
  const feature::FeatureVector v = feature::extract(simple_patch());
  EXPECT_DOUBLE_EQ(v[56], 1.0);  // one file
  EXPECT_DOUBLE_EQ(v[57], 1.0);  // within-patch: every file carries a hunk
  EXPECT_DOUBLE_EQ(v[58], 1.0);  // one function (from the section header)
  EXPECT_DOUBLE_EQ(v[59], 1.0);  // within-patch: one function per hunk
}

TEST(Features, EmptyPatchIsAllZero) {
  diff::Patch p;
  p.commit = std::string(40, 'a');
  const feature::FeatureVector v = feature::extract(p);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

// Property over generated commits: the added/removed/total/net quads are
// internally consistent and basic counts match the diff model.
class FeatureQuadProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FeatureQuadProperty, QuadConsistencyOnGeneratedCommits) {
  util::Rng rng(GetParam() * 7919 + 13);
  const auto types = corpus::security_types();
  const corpus::PatchType type = types[rng.index(types.size())];
  const corpus::CommitRecord record =
      corpus::make_commit(rng, "repo", type);
  const feature::FeatureVector v = feature::extract(record.patch);

  // changed lines == added + removed; quads for every category.
  EXPECT_DOUBLE_EQ(v[0], v[2] + v[3]);
  for (std::size_t base : {2u, 6u, 10u, 14u, 18u, 22u, 26u, 30u, 34u, 38u, 42u}) {
    EXPECT_DOUBLE_EQ(v[base + 2], v[base] + v[base + 1]) << "base " << base;
    EXPECT_DOUBLE_EQ(v[base + 3], v[base] - v[base + 1]) << "base " << base;
    EXPECT_GE(v[base], 0.0);
    EXPECT_GE(v[base + 1], 0.0);
  }
  EXPECT_DOUBLE_EQ(v[2], static_cast<double>(record.patch.added_lines()));
  EXPECT_DOUBLE_EQ(v[3], static_cast<double>(record.patch.removed_lines()));
  EXPECT_DOUBLE_EQ(v[1], static_cast<double>(record.patch.hunk_count()));

  // Levenshtein stats ordered min <= mean <= max.
  EXPECT_LE(v[49], v[48]);
  EXPECT_LE(v[48], v[50]);
  EXPECT_LE(v[52], v[51]);
  EXPECT_LE(v[51], v[53]);

  // The within-patch file share stays in [0, 1].
  EXPECT_GE(v[57], 0.0);
  EXPECT_LE(v[57], 1.0);
  EXPECT_GE(v[59], 0.0);
}

INSTANTIATE_TEST_SUITE_P(GeneratedCommits, FeatureQuadProperty,
                         ::testing::Range<std::uint64_t>(0, 60));

TEST(Features, ExtractAllMatchesSingleExtraction) {
  corpus::WorldConfig config;
  config.repos = 3;
  config.nvd_security = 12;
  config.wild_pool = 60;
  config.seed = 5;
  const corpus::World world = corpus::build_world(config);
  std::vector<const diff::Patch*> patches;
  for (const auto* records : {&world.nvd_security, &world.wild}) {
    for (const corpus::CommitRecord& r : *records) patches.push_back(&r.patch);
  }
  ASSERT_GT(patches.size(), 40u);

  for (const feature::FeatureSpace space :
       {feature::FeatureSpace::kSyntactic, feature::FeatureSpace::kSemantic,
        feature::FeatureSpace::kInterproc}) {
    const feature::FeatureMatrix matrix = feature::extract_all(patches, space);
    ASSERT_EQ(matrix.rows(), patches.size());
    ASSERT_EQ(matrix.cols(), feature::feature_dims(space));
    for (std::size_t i = 0; i < patches.size(); ++i) {
      const std::vector<double> row = feature::extract(*patches[i], space);
      ASSERT_EQ(row.size(), matrix.cols());
      EXPECT_EQ(std::memcmp(matrix[i].data(), row.data(),
                            row.size() * sizeof(double)),
                0)
          << "row " << i << " space " << static_cast<int>(space);
    }
  }
  // The array form is the syntactic dispatch.
  const feature::FeatureVector v = feature::extract(*patches.front());
  const std::vector<double> row =
      feature::extract(*patches.front(), feature::FeatureSpace::kSyntactic);
  EXPECT_EQ(std::memcmp(v.data(), row.data(), sizeof(v)), 0);
}

// Every Table I value of every NVD and wild record of two small worlds
// (World.ContentsPinned's), bit for bit, with the row count. A change to
// the lexer, the abstraction or the extractor that moves any value
// changes the hash.
TEST(Features, RowsPinned) {
  corpus::WorldConfig config;
  config.repos = 4;
  config.nvd_security = 40;
  config.wild_pool = 200;
  config.wrong_link_prob = 0.1;
  std::uint64_t hash = util::fnv1a64("");
  std::size_t rows = 0;
  for (const std::uint64_t seed : {11u, 2021u}) {
    config.seed = seed;
    const corpus::World world = corpus::build_world(config);
    for (const auto* records : {&world.nvd_security, &world.wild}) {
      for (const corpus::CommitRecord& r : *records) {
        for (const double value : feature::extract(r.patch)) {
          char bytes[sizeof(double)];
          std::memcpy(bytes, &value, sizeof(double));
          hash = util::fnv1a64(std::string_view(bytes, sizeof(double)), hash);
        }
        ++rows;
      }
    }
  }
  EXPECT_EQ(rows, 449u);
  EXPECT_EQ(util::to_hex(hash), "ad92a1363b031c9b");
}

// Table I dimensions 0-59 by the recipe that lexes every hunk side twice:
// abstract_code(text) per side, and count_syntax over each side's hunks
// joined with '\n'. The extractor lexes each hunk side once; this oracle
// pins it to the same bits.
feature::FeatureVector two_lex_oracle(const diff::Patch& patch) {
  feature::FeatureVector v{};
  std::string all_added;
  std::string all_removed;
  std::size_t added_chars = 0;
  std::size_t removed_chars = 0;
  std::vector<double> lev_raw;
  std::vector<double> lev_abs;
  std::size_t same_raw = 0;
  std::size_t same_abs = 0;
  std::set<std::string> touched_functions;
  std::size_t sectionless_hunks = 0;
  for (const diff::FileDiff& fd : patch.files) {
    for (const diff::Hunk& hunk : fd.hunks) {
      const std::string removed = hunk.removed_text();
      const std::string added = hunk.added_text();
      all_removed += removed + '\n';
      all_added += added + '\n';
      added_chars += added.size();
      removed_chars += removed.size();
      if (!(removed.empty() && added.empty())) {
        lev_raw.push_back(static_cast<double>(util::levenshtein(removed, added)));
        const std::string removed_abs = lang::abstract_code(removed);
        const std::string added_abs = lang::abstract_code(added);
        lev_abs.push_back(static_cast<double>(util::levenshtein(removed_abs, added_abs)));
        if (removed == added) ++same_raw;
        if (removed_abs == added_abs) ++same_abs;
      }
      if (!hunk.section.empty()) {
        touched_functions.insert(fd.new_path + "::" + hunk.section);
      } else {
        ++sectionless_hunks;
      }
    }
  }
  const lang::SyntaxCounts added = lang::count_syntax(all_added);
  const lang::SyntaxCounts removed = lang::count_syntax(all_removed);
  auto quad = [&v](std::size_t base, std::size_t a, std::size_t r) {
    v[base] = static_cast<double>(a);
    v[base + 1] = static_cast<double>(r);
    v[base + 2] = static_cast<double>(a) + static_cast<double>(r);
    v[base + 3] = static_cast<double>(a) - static_cast<double>(r);
  };
  const double added_lines = static_cast<double>(patch.added_lines());
  const double removed_lines = static_cast<double>(patch.removed_lines());
  v[0] = added_lines + removed_lines;
  v[1] = static_cast<double>(patch.hunk_count());
  v[2] = added_lines;
  v[3] = removed_lines;
  v[4] = added_lines + removed_lines;
  v[5] = added_lines - removed_lines;
  quad(6, added_chars, removed_chars);
  quad(10, added.if_statements, removed.if_statements);
  quad(14, added.loops, removed.loops);
  quad(18, added.function_calls, removed.function_calls);
  quad(22, added.arithmetic_ops, removed.arithmetic_ops);
  quad(26, added.relational_ops, removed.relational_ops);
  quad(30, added.logical_ops, removed.logical_ops);
  quad(34, added.bitwise_ops, removed.bitwise_ops);
  quad(38, added.memory_ops, removed.memory_ops);
  quad(42, added.variables, removed.variables);
  const double total_funcs =
      static_cast<double>(touched_functions.size() + sectionless_hunks);
  v[46] = total_funcs;
  v[47] = static_cast<double>(added.function_defs) -
          static_cast<double>(removed.function_defs);
  auto stats = [&v](std::size_t base, const std::vector<double>& values) {
    if (values.empty()) return;
    double total = 0.0;
    double lo = std::numeric_limits<double>::max();
    double hi = 0.0;
    for (const double d : values) {
      total += d;
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    v[base] = total / static_cast<double>(values.size());
    v[base + 1] = lo;
    v[base + 2] = hi;
  };
  stats(48, lev_raw);
  stats(51, lev_abs);
  v[54] = static_cast<double>(same_raw);
  v[55] = static_cast<double>(same_abs);
  const double files = static_cast<double>(patch.files.size());
  double with_hunks = 0.0;
  for (const diff::FileDiff& fd : patch.files) with_hunks += !fd.hunks.empty();
  v[56] = files;
  v[57] = files > 0.0 ? with_hunks / files : 0.0;
  v[58] = total_funcs;
  v[59] = v[1] > 0.0 ? total_funcs / v[1] : 0.0;
  return v;
}

::testing::AssertionResult matches_two_lex_oracle(const diff::Patch& patch) {
  const feature::FeatureVector expected = two_lex_oracle(patch);
  const feature::FeatureVector actual = feature::extract(patch);
  if (std::memcmp(expected.data(), actual.data(), sizeof(expected)) == 0) {
    return ::testing::AssertionSuccess();
  }
  auto failure = ::testing::AssertionFailure();
  for (std::size_t d = 0; d < feature::kFeatureCount; ++d) {
    if (std::memcmp(&expected[d], &actual[d], sizeof(double)) != 0) {
      failure << "dim " << d << ": oracle " << expected[d] << ", extract "
              << actual[d] << "; ";
    }
  }
  return failure;
}

TEST(Features, LexOnceMatchesTwoLexOracleOnWorld) {
  corpus::WorldConfig config;
  config.repos = 4;
  config.nvd_security = 40;
  config.wild_pool = 400;
  config.seed = 7;
  const corpus::World world = corpus::build_world(config);
  std::size_t rows = 0;
  for (const auto* records : {&world.nvd_security, &world.wild}) {
    for (const corpus::CommitRecord& r : *records) {
      EXPECT_TRUE(matches_two_lex_oracle(r.patch)) << r.patch.commit;
      ++rows;
    }
  }
  EXPECT_GT(rows, 400u);
}

// A patch of one file with two hunks. The first hunk's side holds
// `first`, the second hunk's side `second`; that side is the removed one
// when `on_removed`, else the added one, and the other side holds a
// plain statement.
diff::Patch two_hunk_patch(const std::string& first, const std::string& second,
                           bool on_removed) {
  auto hunk = [on_removed](const std::string& header, const std::string& line) {
    const std::string plain = "n = 0;";
    return header + (on_removed ? "-" + line + "\n+" + plain + "\n"
                                : "-" + plain + "\n+" + line + "\n");
  };
  return diff::parse_patch(
      "diff --git a/x.c b/x.c\n"
      "--- a/x.c\n"
      "+++ b/x.c\n" +
      hunk("@@ -3,1 +3,1 @@ int outer(void)\n", first) +
      hunk("@@ -40,1 +40,1 @@\n", second));
}

struct BoundaryCase {
  const char* name;
  const char* first;
  const char* second;
};

// Hunk boundaries where lexing a side alone and lexing the joined sides
// could disagree. (a)-(c) end the first side open, so the joined text is
// lexed whole; (d)-(f) do not, and the per-side tokens must add up.
TEST(Features, LexOnceMatchesTwoLexOracleAtHunkBoundaries) {
  const BoundaryCase cases[] = {
      {"(a) unterminated block comment", "x = 1; /* note begins",
       "still comment */ y = f(a) + 1;"},
      {"(b) backslash in a string literal", "s = \"abc\\",
       "t = h(c) * 2; if (t) u();"},
      {"(c) backslash in a #define", "#define M(x) \\",
       "  f(x) + g(y) && z"},
      {"(d) unterminated string, no backslash", "s = \"abc",
       "t = h(c) - 3;"},
      {"(e) identifier, then '(' opens the next hunk", "x = foo", "(a, b);"},
      {"(f) function definition split across hunks", "static int f(int a)",
       "{ return a < 2; }"},
  };
  for (const BoundaryCase& c : cases) {
    for (const bool on_removed : {false, true}) {
      const diff::Patch patch = two_hunk_patch(c.first, c.second, on_removed);
      ASSERT_EQ(patch.hunk_count(), 2u) << c.name;
      EXPECT_TRUE(matches_two_lex_oracle(patch))
          << c.name << (on_removed ? " (removed side)" : " (added side)");
    }
  }
}

// What one pass over the hunks must still get right: a hunk side whose
// first lines are empty still joins them with '\n', and two touched
// functions are one exactly when their `path::section` texts are equal,
// even when path and section split differently.
TEST(Features, OnePassMatchesTwoLexOracleOnEdgeHunks) {
  using diff::LineKind;
  diff::Patch patch;
  patch.commit = std::string(40, 'c');
  diff::FileDiff scoped;
  scoped.old_path = scoped.new_path = "x.c::f";
  scoped.hunks.push_back({.old_start = 1, .old_count = 3, .new_start = 1, .new_count = 1,
                          .section = "g",
                          .lines = {{LineKind::kRemoved, ""},
                                    {LineKind::kRemoved, ""},
                                    {LineKind::kRemoved, "a = 1;"},
                                    {LineKind::kAdded, "a = 2;"}}});
  diff::FileDiff plain;
  plain.old_path = plain.new_path = "x.c";
  plain.hunks.push_back({.old_start = 1, .old_count = 0, .new_start = 1, .new_count = 3,
                         .section = "f::g",
                         .lines = {{LineKind::kAdded, ""},
                                   {LineKind::kAdded, "b();"},
                                   {LineKind::kAdded, ""}}});
  plain.hunks.push_back({.old_start = 9, .old_count = 1, .new_start = 11, .new_count = 1,
                         .section = "f:",
                         .lines = {{LineKind::kRemoved, "c;"}, {LineKind::kAdded, "d;"}}});
  patch.files = {scoped, plain};

  EXPECT_TRUE(matches_two_lex_oracle(patch));
  const feature::FeatureVector v = feature::extract(patch);
  EXPECT_EQ(v[46], 2.0);  // "x.c::f::g" twice, then "x.c::f:"
  EXPECT_EQ(v[6], 14.0);  // added chars: "a = 2;", "\nb();\n" and "d;"
}

TEST(FeatureMatrix, TruncateKeepsLeadingRowsInPlace) {
  feature::FeatureMatrix m(4, 3);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      m[i][j] = static_cast<double>(10 * i + j);
    }
  }
  m.truncate(9);  // longer than the matrix: no-op
  ASSERT_EQ(m.rows(), 4u);
  m.truncate(2);
  ASSERT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m[1][2], 12.0);
  m.push_back(std::vector<double>{7.0, 8.0, 9.0});  // appends after row 1
  ASSERT_EQ(m.rows(), 3u);
  EXPECT_EQ(m[2][0], 7.0);
  m.truncate(0);
  EXPECT_EQ(m.rows(), 0u);
}

}  // namespace
}  // namespace patchdb
