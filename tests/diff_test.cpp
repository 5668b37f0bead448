// Tests for the diff module: parsing real-world-shaped git patches
// (including the paper's Listing 1), render round-trips, application,
// inversion, Myers diff properties, and the C/C++ filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "diff/apply.h"
#include "diff/filter.h"
#include "diff/myers.h"
#include "diff/parse.h"
#include "diff/patch.h"
#include "diff/render.h"
#include "util/rng.h"

namespace patchdb {
namespace {

using diff::ChangeKind;
using diff::LineKind;

// The paper's Listing 1 (CVE-2019-20912 security patch), verbatim shape.
constexpr const char* kListing1 =
    "commit b84c2cab55948a5ee70860779b2640913e3ee1ed\n"
    "Author: Dev <dev@example.org>\n"
    "Date:   Tue Mar 3 10:00:00 2020 +0000\n"
    "\n"
    "    fix stack underflow in bit_write_UMC\n"
    "\n"
    "diff --git a/src/bits.c b/src/bits.c\n"
    "index 014b04fe4..a3692bdc6 100644\n"
    "--- a/src/bits.c\n"
    "+++ b/src/bits.c\n"
    "@@ -953,7 +953,7 @@ bit_write_UMC (Bit_Chain *dat, BITCODE_UMC val)\n"
    "     if (byte[i] & 0x7f)\n"
    "       break;\n"
    " \n"
    "-  if (byte[i] & 0x40)\n"
    "+  if (byte[i] & 0x40 && i > 0)\n"
    "     i--;\n"
    "   byte[i] &= 0x7f;\n"
    "   for (j = 4; j >= i; j--)\n";

TEST(Parse, Listing1SecurityPatch) {
  const diff::Patch p = diff::parse_patch(kListing1);
  EXPECT_EQ(p.commit, "b84c2cab55948a5ee70860779b2640913e3ee1ed");
  EXPECT_EQ(p.author, "Dev <dev@example.org>");
  EXPECT_EQ(p.message, "fix stack underflow in bit_write_UMC");
  ASSERT_EQ(p.files.size(), 1u);
  EXPECT_EQ(p.files[0].old_path, "src/bits.c");
  ASSERT_EQ(p.files[0].hunks.size(), 1u);
  const diff::Hunk& h = p.files[0].hunks[0];
  EXPECT_EQ(h.old_start, 953u);
  EXPECT_EQ(h.old_count, 7u);
  EXPECT_EQ(h.new_count, 7u);
  EXPECT_EQ(h.section, "bit_write_UMC (Bit_Chain *dat, BITCODE_UMC val)");
  EXPECT_EQ(h.added_count(), 1u);
  EXPECT_EQ(h.removed_count(), 1u);
  EXPECT_EQ(h.removed_text(), "  if (byte[i] & 0x40)");
  EXPECT_EQ(h.added_text(), "  if (byte[i] & 0x40 && i > 0)");
}

TEST(Parse, MultiFileWithCreateAndDelete) {
  const std::string text =
      "commit 1111111111111111111111111111111111111111\n"
      "\n"
      "    add b, drop c\n"
      "\n"
      "diff --git a/b.c b/b.c\n"
      "new file mode 100644\n"
      "index 0000000..1234567\n"
      "--- /dev/null\n"
      "+++ b/b.c\n"
      "@@ -0,0 +1,2 @@\n"
      "+int x;\n"
      "+int y;\n"
      "diff --git a/c.c b/c.c\n"
      "deleted file mode 100644\n"
      "--- a/c.c\n"
      "+++ /dev/null\n"
      "@@ -1,1 +0,0 @@\n"
      "-int gone;\n";
  const diff::Patch p = diff::parse_patch(text);
  ASSERT_EQ(p.files.size(), 2u);
  EXPECT_EQ(p.files[0].change, ChangeKind::kCreate);
  EXPECT_EQ(p.files[1].change, ChangeKind::kDelete);
  EXPECT_EQ(p.added_lines(), 2u);
  EXPECT_EQ(p.removed_lines(), 1u);
  EXPECT_EQ(p.hunk_count(), 2u);
}

TEST(Parse, NoNewlineMarkerIsSwallowed) {
  const std::string text =
      "commit 2222222222222222222222222222222222222222\n"
      "\n"
      "diff --git a/a.c b/a.c\n"
      "--- a/a.c\n"
      "+++ b/a.c\n"
      "@@ -1,1 +1,1 @@\n"
      "-old\n"
      "\\ No newline at end of file\n"
      "+new\n"
      "\\ No newline at end of file\n";
  const diff::Patch p = diff::parse_patch(text);
  ASSERT_EQ(p.files.size(), 1u);
  ASSERT_EQ(p.files[0].hunks.size(), 1u);
  EXPECT_EQ(p.files[0].hunks[0].lines.size(), 2u);
}

TEST(Parse, BinaryFileProducesNoHunks) {
  const std::string text =
      "commit 3333333333333333333333333333333333333333\n"
      "\n"
      "diff --git a/img.png b/img.png\n"
      "index 1234..5678 100644\n"
      "Binary files a/img.png and b/img.png differ\n";
  const diff::Patch p = diff::parse_patch(text);
  ASSERT_EQ(p.files.size(), 1u);
  EXPECT_TRUE(p.files[0].hunks.empty());
}

TEST(Parse, TruncatedHunkThrows) {
  const std::string text =
      "commit 4444444444444444444444444444444444444444\n"
      "\n"
      "diff --git a/a.c b/a.c\n"
      "--- a/a.c\n"
      "+++ b/a.c\n"
      "@@ -1,3 +1,3 @@\n"
      " only one line\n";
  EXPECT_THROW(diff::parse_patch(text), diff::ParseError);
}

TEST(Parse, GarbageInsideHunkThrows) {
  const std::string text =
      "commit 5555555555555555555555555555555555555555\n"
      "\n"
      "diff --git a/a.c b/a.c\n"
      "--- a/a.c\n"
      "+++ b/a.c\n"
      "@@ -1,2 +1,2 @@\n"
      " fine\n"
      "*garbage marker\n";
  EXPECT_THROW(diff::parse_patch(text), diff::ParseError);
}

TEST(Parse, OverflowingHunkHeaderThrows) {
  // 2^64 + 1 does not fit a size_t: the header is malformed, not line 1.
  const std::string text =
      "commit 6666666666666666666666666666666666666666\n"
      "\n"
      "diff --git a/a.c b/a.c\n"
      "--- a/a.c\n"
      "+++ b/a.c\n"
      "@@ -18446744073709551617,1 +18446744073709551617,1 @@\n"
      "-old\n"
      "+new\n";
  try {
    diff::parse_patch(text);
    ADD_FAILURE() << "an overflowing hunk header parsed";
  } catch (const diff::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("malformed hunk header"), std::string::npos)
        << e.what();
  }
}

TEST(Parse, EmptyInputThrows) {
  EXPECT_THROW(diff::parse_patch("not a patch at all"), diff::ParseError);
}

TEST(Parse, StreamSplitsOnCommitHeaders) {
  std::string text;
  text += kListing1;
  text +=
      "commit aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\n"
      "\n"
      "    second\n"
      "\n"
      "diff --git a/x.c b/x.c\n"
      "--- a/x.c\n"
      "+++ b/x.c\n"
      "@@ -1,1 +1,1 @@\n"
      "-a\n"
      "+b\n";
  const std::vector<diff::Patch> patches = diff::parse_patch_stream(text);
  ASSERT_EQ(patches.size(), 2u);
  EXPECT_EQ(patches[0].commit, "b84c2cab55948a5ee70860779b2640913e3ee1ed");
  EXPECT_EQ(patches[1].message, "second");
}

TEST(Render, RoundTripsListing1) {
  const diff::Patch p = diff::parse_patch(kListing1);
  const diff::Patch again = diff::parse_patch(diff::render_patch(p));
  EXPECT_EQ(p, again);
}

// Property: parse(render(p)) == p for generated patches.
class RenderRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

diff::Patch random_patch(util::Rng& rng) {
  diff::Patch p;
  p.commit = std::string(40, 'a' + static_cast<char>(rng.index(6)));
  p.author = "A <a@b.c>";
  p.date = "Mon Jan 1 00:00:00 2020 +0000";
  p.message = "subject line\n\nbody text";
  const std::size_t n_files = 1 + rng.index(3);
  for (std::size_t f = 0; f < n_files; ++f) {
    diff::FileDiff fd;
    fd.old_path = "dir/file" + std::to_string(f) + ".c";
    fd.new_path = fd.old_path;
    std::size_t line = 1;
    const std::size_t n_hunks = 1 + rng.index(3);
    for (std::size_t h = 0; h < n_hunks; ++h) {
      diff::Hunk hunk;
      hunk.section = "fn_" + std::to_string(h) + "(void)";
      line += rng.index(20);
      hunk.old_start = line;
      hunk.new_start = line;
      const std::size_t n_lines = 1 + rng.index(6);
      for (std::size_t l = 0; l < n_lines; ++l) {
        const std::size_t kind = rng.index(3);
        diff::Line entry;
        entry.text = "x = " + std::to_string(rng.index(100)) + ";";
        entry.kind = kind == 0   ? LineKind::kContext
                     : kind == 1 ? LineKind::kRemoved
                                 : LineKind::kAdded;
        hunk.lines.push_back(entry);
      }
      hunk.old_count = 0;
      hunk.new_count = 0;
      for (const auto& entry : hunk.lines) {
        if (entry.kind != LineKind::kAdded) ++hunk.old_count;
        if (entry.kind != LineKind::kRemoved) ++hunk.new_count;
      }
      if (hunk.old_count == 0 && hunk.new_count == 0) continue;
      line += hunk.old_count + 1;
      fd.hunks.push_back(std::move(hunk));
    }
    if (!fd.hunks.empty()) p.files.push_back(std::move(fd));
  }
  return p;
}

TEST_P(RenderRoundTrip, ParseRenderIdentity) {
  util::Rng rng(GetParam() * 31 + 7);
  const diff::Patch p = random_patch(rng);
  const std::string text = diff::render_patch(p);
  const diff::Patch again = diff::parse_patch(text);
  EXPECT_EQ(p, again) << text;
}

INSTANTIATE_TEST_SUITE_P(RandomPatches, RenderRoundTrip,
                         ::testing::Range<std::uint64_t>(0, 60));

// ------------------------------------------------------------- apply --

TEST(Apply, AppliesSimpleHunk) {
  const std::vector<std::string> old_lines = {"a", "b", "c", "d"};
  diff::FileDiff fd;
  fd.old_path = fd.new_path = "f.c";
  diff::Hunk h;
  h.old_start = 2;
  h.old_count = 2;
  h.new_start = 2;
  h.new_count = 2;
  h.lines = {{LineKind::kContext, "b"},
             {LineKind::kRemoved, "c"},
             {LineKind::kAdded, "C"}};
  fd.hunks.push_back(h);
  const auto result = diff::apply_file_diff(old_lines, fd);
  EXPECT_EQ(result, (std::vector<std::string>{"a", "b", "C", "d"}));
}

TEST(Apply, ContextMismatchThrows) {
  const std::vector<std::string> old_lines = {"a", "DIFFERENT", "c"};
  diff::FileDiff fd;
  diff::Hunk h;
  h.old_start = 2;
  h.old_count = 1;
  h.new_start = 2;
  h.new_count = 1;
  h.lines = {{LineKind::kRemoved, "b"}};
  h.lines.push_back({LineKind::kAdded, "B"});
  h.old_count = 1;
  h.new_count = 1;
  fd.hunks.push_back(h);
  EXPECT_THROW(diff::apply_file_diff(old_lines, fd), diff::ApplyError);
}

TEST(Apply, HunkPastEndThrows) {
  diff::FileDiff fd;
  diff::Hunk h;
  h.old_start = 10;
  h.old_count = 1;
  h.new_start = 10;
  h.new_count = 1;
  h.lines = {{LineKind::kRemoved, "x"}, {LineKind::kAdded, "y"}};
  fd.hunks.push_back(h);
  EXPECT_THROW(diff::apply_file_diff({"a"}, fd), diff::ApplyError);
}

// Property: for random file pairs, apply(diff(a,b), a) == b and
// unapply(diff(a,b), b) == a. The second parameter prepends that many
// unchanged lines (0, 1 or 3) to both files, which moves every edit that
// far from the file start: an edit on the first line then gets none,
// one, or all three lines of its leading context.
class MyersRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(MyersRoundTrip, DiffApplyIdentity) {
  const auto [seed, lead_lines] = GetParam();
  util::Rng rng(seed * 101 + 3);
  auto random_file = [&rng](std::size_t max_lines) {
    std::vector<std::string> lines;
    const std::size_t n = rng.index(max_lines + 1);
    for (std::size_t i = 0; i < n; ++i) {
      lines.push_back("line" + std::to_string(rng.index(12)));
    }
    return lines;
  };
  std::vector<std::string> a = random_file(30);
  // b = a with random edits, so the diff is realistic rather than total.
  std::vector<std::string> b = a;
  const std::size_t edits = rng.index(6);
  for (std::size_t e = 0; e < edits && !b.empty(); ++e) {
    const std::size_t pos = rng.index(b.size());
    switch (rng.index(3)) {
      case 0: b[pos] = "edited" + std::to_string(rng.index(9)); break;
      case 1: b.erase(b.begin() + static_cast<std::ptrdiff_t>(pos)); break;
      default:
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(pos),
                 "inserted" + std::to_string(rng.index(9)));
        break;
    }
  }

  for (std::size_t i = 0; i < lead_lines; ++i) {
    const std::string lead = "lead" + std::to_string(i);
    a.insert(a.begin() + static_cast<std::ptrdiff_t>(i), lead);
    b.insert(b.begin() + static_cast<std::ptrdiff_t>(i), lead);
  }

  const diff::FileDiff fd =
      diff::diff_file("f.c", diff::line_views(a), diff::line_views(b));
  EXPECT_EQ(diff::apply_file_diff(a, fd), b);
  EXPECT_EQ(diff::unapply_file_diff(b, fd), a);

  // Hunk headers must be internally consistent.
  for (const diff::Hunk& h : fd.hunks) {
    std::size_t old_n = 0;
    std::size_t new_n = 0;
    for (const diff::Line& l : h.lines) {
      if (l.kind != LineKind::kAdded) ++old_n;
      if (l.kind != LineKind::kRemoved) ++new_n;
    }
    EXPECT_EQ(old_n, h.old_count);
    EXPECT_EQ(new_n, h.new_count);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomFiles, MyersRoundTrip,
    ::testing::Combine(::testing::Range<std::uint64_t>(0, 40),
                       ::testing::Values<std::size_t>(0, 1, 3)));

// The greedy search before its trace was windowed: a full copy of `v`
// per step, then the same hunk grouping. Kept as the oracle for
// diff_lines, which must return the same hunks.
std::vector<diff::Hunk> full_trace_diff_lines(const std::vector<std::string>& a,
                                              const std::vector<std::string>& b,
                                              std::size_t context) {
  enum class EditKind { kKeep, kRemove, kAdd };
  struct Edit {
    EditKind kind;
    std::size_t index;
  };
  std::vector<Edit> script;
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  const std::size_t max_d = n + m;
  if (max_d > 0) {
    const std::size_t offset = max_d;
    std::vector<std::size_t> v(2 * max_d + 1, 0);
    std::vector<std::vector<std::size_t>> trace;
    std::size_t final_d = 0;
    bool found = false;
    for (std::size_t d = 0; d <= max_d && !found; ++d) {
      trace.push_back(v);
      for (std::int64_t k = -static_cast<std::int64_t>(d);
           k <= static_cast<std::int64_t>(d); k += 2) {
        const std::size_t ki =
            static_cast<std::size_t>(k + static_cast<std::int64_t>(offset));
        std::size_t x;
        if (k == -static_cast<std::int64_t>(d) ||
            (k != static_cast<std::int64_t>(d) && v[ki - 1] < v[ki + 1])) {
          x = v[ki + 1];
        } else {
          x = v[ki - 1] + 1;
        }
        std::size_t y = static_cast<std::size_t>(static_cast<std::int64_t>(x) - k);
        while (x < n && y < m && a[x] == b[y]) {
          ++x;
          ++y;
        }
        v[ki] = x;
        if (x >= n && y >= m) {
          final_d = d;
          found = true;
          break;
        }
      }
    }
    std::int64_t x = static_cast<std::int64_t>(n);
    std::int64_t y = static_cast<std::int64_t>(m);
    for (std::size_t d = final_d; d > 0; --d) {
      const auto& prev = trace[d];
      const std::int64_t k = x - y;
      const std::size_t ki =
          static_cast<std::size_t>(k + static_cast<std::int64_t>(offset));
      std::int64_t prev_k;
      if (k == -static_cast<std::int64_t>(d) ||
          (k != static_cast<std::int64_t>(d) && prev[ki - 1] < prev[ki + 1])) {
        prev_k = k + 1;
      } else {
        prev_k = k - 1;
      }
      const std::int64_t prev_x = static_cast<std::int64_t>(
          prev[static_cast<std::size_t>(prev_k + static_cast<std::int64_t>(offset))]);
      const std::int64_t prev_y = prev_x - prev_k;
      while (x > prev_x && y > prev_y) {
        script.push_back(Edit{EditKind::kKeep, static_cast<std::size_t>(x - 1)});
        --x;
        --y;
      }
      if (x == prev_x) {
        script.push_back(Edit{EditKind::kAdd, static_cast<std::size_t>(y - 1)});
        --y;
      } else {
        script.push_back(Edit{EditKind::kRemove, static_cast<std::size_t>(x - 1)});
        --x;
      }
    }
    while (x > 0 && y > 0) {
      script.push_back(Edit{EditKind::kKeep, static_cast<std::size_t>(x - 1)});
      --x;
      --y;
    }
    while (x > 0) {
      script.push_back(Edit{EditKind::kRemove, static_cast<std::size_t>(x - 1)});
      --x;
    }
    while (y > 0) {
      script.push_back(Edit{EditKind::kAdd, static_cast<std::size_t>(y - 1)});
      --y;
    }
    std::reverse(script.begin(), script.end());
  }

  std::vector<diff::Hunk> hunks;
  std::size_t i = 0;
  std::size_t old_line = 0;
  std::size_t new_line = 0;
  while (i < script.size()) {
    while (i < script.size() && script[i].kind == EditKind::kKeep) {
      ++old_line;
      ++new_line;
      ++i;
    }
    if (i >= script.size()) break;
    diff::Hunk hunk;
    const std::size_t lead = std::min(context, old_line);
    const std::size_t h_old = old_line - lead;
    const std::size_t h_new = new_line - lead;
    hunk.old_start = h_old + 1;
    hunk.new_start = h_new + 1;
    for (std::size_t c = 0; c < lead; ++c) {
      hunk.lines.push_back(diff::Line{LineKind::kContext, a[h_old + c]});
    }
    while (i < script.size()) {
      const Edit& e = script[i];
      if (e.kind == EditKind::kKeep) {
        std::size_t run = 0;
        while (i + run < script.size() && script[i + run].kind == EditKind::kKeep) {
          ++run;
        }
        const bool at_end = (i + run >= script.size());
        if (at_end || run > 2 * context) {
          const std::size_t keep = std::min(context, run);
          for (std::size_t c = 0; c < keep; ++c) {
            hunk.lines.push_back(diff::Line{LineKind::kContext, a[old_line]});
            ++old_line;
            ++new_line;
            ++i;
          }
          break;
        }
        for (std::size_t c = 0; c < run; ++c) {
          hunk.lines.push_back(diff::Line{LineKind::kContext, a[old_line]});
          ++old_line;
          ++new_line;
          ++i;
        }
      } else if (e.kind == EditKind::kRemove) {
        hunk.lines.push_back(diff::Line{LineKind::kRemoved, a[e.index]});
        ++old_line;
        ++i;
      } else {
        hunk.lines.push_back(diff::Line{LineKind::kAdded, b[e.index]});
        ++new_line;
        ++i;
      }
    }
    for (const diff::Line& l : hunk.lines) {
      if (l.kind != LineKind::kAdded) ++hunk.old_count;
      if (l.kind != LineKind::kRemoved) ++hunk.new_count;
    }
    if (hunk.old_count == 0) hunk.old_start = h_old;
    if (hunk.new_count == 0) hunk.new_start = h_new;
    hunks.push_back(std::move(hunk));
  }
  return hunks;
}

// Property: the windowed trace returns the full trace's hunks, line for
// line and header for header. Sides share a random prefix and suffix
// around random middles drawn from small alphabets (so lines repeat and
// the greedy search has ties to break), and either side may be empty.
TEST(Myers, MatchesFullTraceOracle) {
  util::Rng rng(2024);
  auto random_lines = [&rng](std::size_t max_lines, std::size_t alphabet) {
    std::vector<std::string> lines;
    const std::size_t n = rng.index(max_lines + 1);
    for (std::size_t i = 0; i < n; ++i) {
      lines.push_back("l" + std::to_string(rng.index(alphabet)));
    }
    return lines;
  };
  std::size_t compared_hunks = 0;
  for (int round = 0; round < 3500; ++round) {
    const std::size_t alphabet = 1 + rng.index(round % 3 == 0 ? 3 : 12);
    const std::vector<std::string> prefix = random_lines(8, alphabet);
    const std::vector<std::string> suffix = random_lines(8, alphabet);
    std::vector<std::string> a = random_lines(round % 5 == 0 ? 0 : 40, alphabet);
    std::vector<std::string> b = random_lines(round % 7 == 0 ? 0 : 40, alphabet);
    if (round % 2 == 0) {
      a.insert(a.begin(), prefix.begin(), prefix.end());
      a.insert(a.end(), suffix.begin(), suffix.end());
      b.insert(b.begin(), prefix.begin(), prefix.end());
      b.insert(b.end(), suffix.begin(), suffix.end());
    }
    const std::vector<diff::Hunk> expected =
        full_trace_diff_lines(a, b, diff::kContextLines);
    EXPECT_EQ(diff::diff_lines(diff::line_views(a), diff::line_views(b)), expected)
        << "round " << round;
    compared_hunks += expected.size();
  }
  EXPECT_GT(compared_hunks, 3000u);
}

TEST(Myers, IdenticalFilesYieldNoHunks) {
  const std::vector<std::string> a = {"x", "y"};
  const std::vector<std::string_view> lines = diff::line_views(a);
  EXPECT_TRUE(diff::diff_lines(lines, lines).empty());
}

TEST(Myers, CreateAndDeleteKinds) {
  const std::vector<std::string_view> content = {"a", "b"};
  EXPECT_EQ(diff::diff_file("f.c", {}, content).change, ChangeKind::kCreate);
  EXPECT_EQ(diff::diff_file("f.c", content, {}).change, ChangeKind::kDelete);
}

TEST(Invert, DoubleInvertIsIdentity) {
  util::Rng rng(77);
  for (int i = 0; i < 20; ++i) {
    std::vector<std::string> a;
    std::vector<std::string> b;
    for (std::size_t j = 0; j < 10; ++j) {
      a.push_back("l" + std::to_string(rng.index(6)));
      b.push_back("l" + std::to_string(rng.index(6)));
    }
    const diff::FileDiff fd =
        diff::diff_file("f.c", diff::line_views(a), diff::line_views(b));
    const diff::FileDiff twice = diff::invert(diff::invert(fd));
    EXPECT_EQ(fd.hunks, twice.hunks);
  }
}

// ------------------------------------------------------------- filter --

TEST(Filter, IsCppPath) {
  EXPECT_TRUE(diff::is_cpp_path("a/b.c"));
  EXPECT_TRUE(diff::is_cpp_path("x.hpp"));
  EXPECT_TRUE(diff::is_cpp_path("Y.CC"));
  EXPECT_FALSE(diff::is_cpp_path("build.sh"));
  EXPECT_FALSE(diff::is_cpp_path("ChangeLog"));
  EXPECT_FALSE(diff::is_cpp_path("test.phpt"));
}

TEST(Filter, KeepsOnlyCppFiles) {
  diff::Patch p;
  diff::FileDiff code;
  code.old_path = code.new_path = "a.c";
  code.hunks.emplace_back();
  diff::FileDiff doc;
  doc.old_path = doc.new_path = "README.md";
  doc.hunks.emplace_back();
  p.files = {code, doc};

  const diff::FilterStats stats = diff::keep_cpp_only(p);
  EXPECT_EQ(stats.files_kept, 1u);
  EXPECT_EQ(stats.files_dropped, 1u);
  ASSERT_EQ(stats.dropped_paths.size(), 1u);
  EXPECT_EQ(stats.dropped_paths[0], "README.md");
  ASSERT_EQ(p.files.size(), 1u);
  EXPECT_EQ(p.files[0].new_path, "a.c");
}

// ---------------------------------------------------- fuzz robustness --

// The crawler feeds arbitrary web pages into parse_patch; it must either
// throw ParseError or return a Patch — never crash.
class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, RandomBytesNeverCrash) {
  util::Rng rng(GetParam() * 2654435761ULL + 17);
  std::string garbage;
  const std::size_t n = rng.index(600);
  for (std::size_t i = 0; i < n; ++i) {
    garbage += static_cast<char>(rng.index(256));
  }
  try {
    const diff::Patch p = diff::parse_patch(garbage);
    (void)diff::render_patch(p);  // whatever parsed must render
  } catch (const diff::ParseError&) {
    // acceptable outcome
  }
}

TEST_P(ParserFuzz, MutatedRealPatchNeverCrashes) {
  util::Rng rng(GetParam() * 97 + 3);
  std::string text = kListing1;
  // Flip, delete, and insert random bytes.
  for (int edits = 0; edits < 12 && !text.empty(); ++edits) {
    const std::size_t pos = rng.index(text.size());
    switch (rng.index(3)) {
      case 0: text[pos] = static_cast<char>(rng.index(128)); break;
      case 1: text.erase(pos, 1 + rng.index(4)); break;
      default:
        text.insert(pos, std::string(1 + rng.index(3),
                                     static_cast<char>('!' + rng.index(90))));
        break;
    }
  }
  try {
    const diff::Patch p = diff::parse_patch(text);
    for (const diff::FileDiff& fd : p.files) {
      for (const diff::Hunk& h : fd.hunks) {
        // Internal consistency must hold for whatever was accepted.
        std::size_t old_n = 0;
        std::size_t new_n = 0;
        for (const diff::Line& l : h.lines) {
          if (l.kind != LineKind::kAdded) ++old_n;
          if (l.kind != LineKind::kRemoved) ++new_n;
        }
        EXPECT_EQ(old_n, h.old_count);
        EXPECT_EQ(new_n, h.new_count);
      }
    }
  } catch (const diff::ParseError&) {
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range<std::uint64_t>(0, 60));

TEST(Filter, HasCppChangesRequiresHunks) {
  diff::Patch p;
  diff::FileDiff fd;
  fd.old_path = fd.new_path = "a.c";
  p.files = {fd};
  EXPECT_FALSE(diff::has_cpp_changes(p));  // no hunks
  p.files[0].hunks.emplace_back();
  EXPECT_TRUE(diff::has_cpp_changes(p));
}

}  // namespace
}  // namespace patchdb
