// Unit and property tests for the util module: RNG, Levenshtein, stats,
// strings, whole-file reads, tables, thread pool, hashing.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "corpus/world.h"
#include "lang/abstract.h"
#include "util/file.h"
#include "util/hash.h"
#include "util/levenshtein.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace patchdb {
namespace {

// ---------------------------------------------------------------- RNG --

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(123);
  util::Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Rng a(1);
  util::Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntRespectsBounds) {
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntCoversRange) {
  util::Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntThrowsOnInvertedBounds) {
  util::Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(Rng, IndexZeroThrows) {
  util::Rng rng(1);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, UniformRealInHalfOpenUnit) {
  util::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalHasRoughlyZeroMeanUnitVariance) {
  util::Rng rng(9);
  std::vector<double> values(20000);
  for (double& v : values) v = rng.normal();
  const util::Summary s = util::summarize(values);
  EXPECT_NEAR(s.mean, 0.0, 0.05);
  EXPECT_NEAR(s.stddev, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  util::Rng rng(3);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  util::Rng rng(17);
  const auto sample = rng.sample_indices(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t i : sample) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesRejectsOversample) {
  util::Rng rng(1);
  EXPECT_THROW(rng.sample_indices(3, 4), std::invalid_argument);
}

TEST(Rng, WeightedFollowsWeights) {
  util::Rng rng(23);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 8000; ++i) {
    counts[rng.weighted(weights)]++;
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(Rng, WeightedRejectsZeroTotal) {
  util::Rng rng(1);
  const std::vector<double> weights = {0.0, 0.0};
  EXPECT_THROW(rng.weighted(weights), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  util::Rng a(1);
  util::Rng child = a.fork();
  EXPECT_NE(a(), child());
}

// -------------------------------------------------------- Levenshtein --

// The classic single-row dynamic program: the oracle util::levenshtein's
// bit-vector algorithm must equal exactly.
std::size_t dp_levenshtein(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string
  if (b.empty()) return a.size();
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev_diag = row[0];  // dp[i-1][0]
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t prev_row = row[j];  // dp[i-1][j]
      const std::size_t subst = prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
      prev_diag = prev_row;
    }
  }
  return row[b.size()];
}

// `n` bytes drawn from the first `alphabet` values of a 256-byte range
// that starts at 'a' and wraps, so an alphabet of 256 holds every byte,
// those >= 0x80 included.
std::string random_bytes(util::Rng& rng, std::size_t n, std::size_t alphabet) {
  std::string s;
  for (std::size_t i = 0; i < n; ++i) {
    s += static_cast<char>(static_cast<unsigned char>('a' + rng.index(alphabet)));
  }
  return s;
}

TEST(Levenshtein, KnownValues) {
  EXPECT_EQ(util::levenshtein("", ""), 0u);
  EXPECT_EQ(util::levenshtein("abc", ""), 3u);
  EXPECT_EQ(util::levenshtein("", "abc"), 3u);
  EXPECT_EQ(util::levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(util::levenshtein("flaw", "lawn"), 2u);
  EXPECT_EQ(util::levenshtein("abc", "abc"), 0u);
}

// Every length from 0 to 200 against the lengths around each 64-bit
// block edge, in both argument orders, over small and full-byte
// alphabets: the single-word path, the blocked path and the hand-over
// between blocks all meet the oracle.
TEST(Levenshtein, MatchesDpAcrossBlockEdges) {
  const std::size_t edges[] = {0,  1,   2,   3,   31,  32,  33,  63,  64,
                               65, 100, 127, 128, 129, 191, 192, 193, 200};
  util::Rng rng(64);
  for (const std::size_t alphabet : {2u, 4u, 256u}) {
    for (std::size_t la = 0; la <= 200; ++la) {
      for (const std::size_t lb : edges) {
        const std::string a = random_bytes(rng, la, alphabet);
        const std::string b = random_bytes(rng, lb, alphabet);
        const std::size_t expected = dp_levenshtein(a, b);
        ASSERT_EQ(util::levenshtein(a, b), expected)
            << "alphabet " << alphabet << " lengths " << la << ", " << lb;
        ASSERT_EQ(util::levenshtein(b, a), expected)
            << "alphabet " << alphabet << " lengths " << lb << ", " << la;
      }
    }
  }
}

// Long shared prefixes and suffixes, which the trim removes before the
// bit-vector pass, around middles of every size class.
TEST(Levenshtein, MatchesDpWithSharedPrefixAndSuffix) {
  util::Rng rng(65);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t alphabet = trial % 2 == 0 ? 4 : 256;
    const std::string prefix = random_bytes(rng, rng.index(140), alphabet);
    const std::string suffix = random_bytes(rng, rng.index(140), alphabet);
    const std::string a =
        prefix + random_bytes(rng, rng.index(150), alphabet) + suffix;
    const std::string b =
        prefix + random_bytes(rng, rng.index(150), alphabet) + suffix;
    ASSERT_EQ(util::levenshtein(a, b), dp_levenshtein(a, b)) << "trial " << trial;
    // One string a prefix (or suffix) of the other.
    ASSERT_EQ(util::levenshtein(prefix, a), dp_levenshtein(prefix, a)) << "trial " << trial;
    ASSERT_EQ(util::levenshtein(b, suffix), dp_levenshtein(b, suffix)) << "trial " << trial;
  }
}

// The pairs Table I measures: every hunk's removed and added text of a
// small simulated world, raw and after token abstraction.
TEST(Levenshtein, MatchesDpOnPipelineHunks) {
  corpus::WorldConfig config;
  config.repos = 3;
  config.nvd_security = 12;
  config.wild_pool = 60;
  config.seed = 5;
  const corpus::World world = corpus::build_world(config);
  std::size_t pairs = 0;
  for (const auto* records : {&world.nvd_security, &world.wild}) {
    for (const corpus::CommitRecord& r : *records) {
      for (const diff::FileDiff& fd : r.patch.files) {
        for (const diff::Hunk& hunk : fd.hunks) {
          const std::string removed = hunk.removed_text();
          const std::string added = hunk.added_text();
          const std::string removed_abs = lang::abstract_code(removed);
          const std::string added_abs = lang::abstract_code(added);
          ASSERT_EQ(util::levenshtein(removed, added), dp_levenshtein(removed, added))
              << removed << "\n---\n" << added;
          ASSERT_EQ(util::levenshtein(removed_abs, added_abs),
                    dp_levenshtein(removed_abs, added_abs))
              << removed_abs << "\n---\n" << added_abs;
          ++pairs;
        }
      }
    }
  }
  EXPECT_GT(pairs, 60u);
}

struct LevCase {
  std::string a;
  std::string b;
};

class LevenshteinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LevenshteinProperty, MetricAxiomsOnRandomStrings) {
  util::Rng rng(GetParam());
  // Up to 200 characters: past three 64-bit blocks.
  auto random_string = [&rng] { return random_bytes(rng, rng.index(201), 4); };
  const std::string a = random_string();
  const std::string b = random_string();
  const std::string c = random_string();
  const std::size_t dab = util::levenshtein(a, b);
  const std::size_t dba = util::levenshtein(b, a);
  const std::size_t dac = util::levenshtein(a, c);
  const std::size_t dcb = util::levenshtein(c, b);
  EXPECT_EQ(dab, dba);                            // symmetry
  EXPECT_EQ(util::levenshtein(a, a), 0u);         // identity
  EXPECT_LE(dab, dac + dcb);                      // triangle inequality
  EXPECT_GE(dab, a.size() > b.size() ? a.size() - b.size()
                                     : b.size() - a.size());  // lower bound
  EXPECT_LE(dab, std::max(a.size(), b.size()));   // upper bound
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, LevenshteinProperty,
                         ::testing::Range<std::uint64_t>(0, 50));

// -------------------------------------------------------------- stats --

TEST(Stats, SummaryBasics) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  const util::Summary s = util::summarize(v);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, SummaryEmpty) {
  const util::Summary s = util::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, WaldIntervalMatchesHandComputation) {
  // 290/1000 at 95%: p=0.29, half-width = 1.96*sqrt(.29*.71/1000) ~ 0.0281.
  const util::Interval ci = util::wald_interval(290, 1000);
  EXPECT_NEAR(ci.center, 0.29, 1e-12);
  EXPECT_NEAR(ci.half_width, 0.0281, 0.0005);
  EXPECT_NEAR(ci.lo, 0.29 - ci.half_width, 1e-12);
}

TEST(Stats, WilsonIntervalStaysInUnit) {
  const util::Interval lo = util::wilson_interval(0, 10);
  const util::Interval hi = util::wilson_interval(10, 10);
  EXPECT_GE(lo.lo, 0.0);
  EXPECT_LE(hi.hi, 1.0);
  EXPECT_GT(lo.hi, 0.0);  // Wilson never collapses to a point at 0/n
  EXPECT_LT(hi.lo, 1.0);
}

TEST(Stats, ZeroTrialsYieldEmptyInterval) {
  const util::Interval ci = util::wald_interval(0, 0);
  EXPECT_EQ(ci.center, 0.0);
  EXPECT_EQ(ci.half_width, 0.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {2, 4, 6, 8};
  const std::vector<double> c = {8, 6, 4, 2};
  EXPECT_NEAR(util::pearson(a, b), 1.0, 1e-12);
  EXPECT_NEAR(util::pearson(a, c), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerateInputs) {
  const std::vector<double> a = {1, 1, 1};
  const std::vector<double> b = {2, 4, 6};
  EXPECT_EQ(util::pearson(a, b), 0.0);
  EXPECT_EQ(util::pearson({}, {}), 0.0);
}

TEST(Stats, FormatPercentCi) {
  const util::Interval ci = util::wald_interval(29, 100);
  EXPECT_EQ(util::format_percent_ci(ci), "29(+/-8.9)%");
}

// ------------------------------------------------------------ strings --

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = util::split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitLinesHandlesTrailingNewlineAndCr) {
  const auto lines = util::split_lines("a\r\nb\nc\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  EXPECT_EQ(lines[2], "c");
}

TEST(Strings, SplitLinesStripsCrOnFinalUnterminatedLine) {
  // The npos branch used to keep the '\r': "a\r\nb\r" parsed as
  // {"a", "b\r"}, so CRLF text behaved differently with and without a
  // trailing newline.
  const auto lines = util::split_lines("a\r\nb\r");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  // A lone '\r' line is stripped to empty, not dropped.
  const auto lone = util::split_lines("x\n\r");
  ASSERT_EQ(lone.size(), 2u);
  EXPECT_EQ(lone[1], "");
}

TEST(Strings, SplitWsSkipsRuns) {
  const auto parts = util::split_ws("  a\t b  c ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, TrimVariants) {
  EXPECT_EQ(util::trim("  x  "), "x");
  EXPECT_EQ(util::trim_left("  x  "), "x  ");
  EXPECT_EQ(util::trim_right("  x  "), "  x");
  EXPECT_EQ(util::trim("   "), "");
}

TEST(Strings, ExtensionLowercasesAndHandlesPaths) {
  EXPECT_EQ(util::extension("src/a.CPP"), ".cpp");
  EXPECT_EQ(util::extension("Makefile"), "");
  EXPECT_EQ(util::extension("a/b.c"), ".c");
  EXPECT_EQ(util::extension(".hidden"), "");
  EXPECT_EQ(util::extension("dir.d/file"), "");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(util::replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(util::replace_all("abc", "x", "y"), "abc");
  EXPECT_EQ(util::replace_all("abc", "", "y"), "abc");
}

TEST(Strings, ParseSize) {
  std::size_t v = 0;
  EXPECT_TRUE(util::parse_size("123", v));
  EXPECT_EQ(v, 123u);
  EXPECT_FALSE(util::parse_size("", v));
  EXPECT_FALSE(util::parse_size("12a", v));
  EXPECT_FALSE(util::parse_size("-1", v));
  EXPECT_FALSE(util::parse_size("+1", v));
  EXPECT_FALSE(util::parse_size(" 1", v));
  EXPECT_FALSE(util::parse_size("0x10", v));
  EXPECT_TRUE(util::parse_size("18446744073709551615", v));
  EXPECT_EQ(v, std::numeric_limits<std::size_t>::max());
  // Past SIZE_MAX fails instead of wrapping, and leaves `out` alone.
  v = 7;
  EXPECT_FALSE(util::parse_size("18446744073709551616", v));
  EXPECT_FALSE(util::parse_size("18446744073709551617", v));
  EXPECT_FALSE(util::parse_size("99999999999999999999999", v));
  EXPECT_EQ(v, 7u);
}

TEST(Strings, HumanCount) {
  EXPECT_EQ(util::human_count(950), "950");
  EXPECT_EQ(util::human_count(100000), "100K");
  EXPECT_EQ(util::human_count(6200000), "6.2M");
}

// format_double writes features.csv, so it must match printf("%.*f")
// byte for byte, at every length: the 64-byte buffer it once used cut
// 1e56 to 63 of its 64 characters.
TEST(Strings, FormatDoubleMatchesPrintf) {
  const auto printf_fixed = [](double value, int decimals) {
    std::string out(
        static_cast<std::size_t>(std::snprintf(nullptr, 0, "%.*f", decimals, value)),
        '\0');
    std::snprintf(out.data(), out.size() + 1, "%.*f", decimals, value);
    return out;
  };
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 2.5, -2.5, 0.125, 1e56, -1e56, 1e300,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  // Exact ties at every decimal place: k/2^n with n up to 20.
  for (int n = 1; n <= 20; ++n) {
    for (int k = 1; k < 64; k += 2) values.push_back(std::ldexp(k, -n));
  }
  for (int e = 56; e <= 308; e += 12) values.push_back(std::pow(10.0, e) * 1.2345);
  util::Rng rng(0xf0f0);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    values.push_back(value);
    // Subnormals: a random mantissa under a zero exponent.
    const std::uint64_t subnormal = bits & 0x800fffffffffffffULL;
    std::memcpy(&value, &subnormal, sizeof value);
    values.push_back(value);
  }
  for (const double value : values) {
    for (int decimals = 0; decimals <= 6; ++decimals) {
      ASSERT_EQ(util::format_double(value, decimals), printf_fixed(value, decimals))
          << std::hexfloat << value << " at " << decimals << " decimals";
    }
  }
  EXPECT_EQ(util::format_double(1e56, 6).size(), 64u);
}

// --------------------------------------------------------------- file --

TEST(ReadFile, ReturnsEveryByteOrNothing) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("patchdb_read_file_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::string bytes;
  for (int i = 0; i < 70000; ++i) bytes.push_back(static_cast<char>(i * 31));
  {
    std::ofstream(dir / "bytes", std::ios::binary) << bytes;
    std::ofstream(dir / "empty", std::ios::binary).flush();
  }
  EXPECT_EQ(util::read_file(dir / "bytes"), bytes);
  EXPECT_EQ(util::read_file(dir / "empty"), std::string());
  EXPECT_EQ(util::read_file(dir / "missing"), std::nullopt);
  EXPECT_EQ(util::read_file(dir), std::nullopt);  // opens, but reads fail
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------------------- table --

TEST(Table, RendersHeaderRowsAndNotes) {
  util::Table t("Demo");
  t.set_header({"A", "Bee"});
  t.add_row({"1", "2"});
  t.add_separator();
  t.add_row({"333", "4"});
  t.add_note("a note");
  const std::string out = t.render();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("Bee"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_NE(out.find("a note"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  util::Table t("x");
  t.set_header({"A", "B"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  util::Table t("x");
  t.set_header({"A", "B"});
  t.add_row({"a,b", "q\"q"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"q\"\"q\""), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(util::format_double(3.14159, 2), "3.14");
  EXPECT_EQ(util::format_percent(0.291, 1), "29.1%");
}

// -------------------------------------------------------- thread pool --

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  util::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  util::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t lo, std::size_t) {
                                   if (lo == 0) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // Pool is still usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t lo, std::size_t hi) {
    count += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  util::ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // A nested call on the same (default) pool must not deadlock.
      pool.parallel_for(10, [&](std::size_t a, std::size_t b) {
        inner_total += static_cast<int>(b - a);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 40);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  util::ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, SubmittedTaskThrowingDoesNotKillPool) {
  // A throwing submit() task used to escape worker_loop: the exception
  // left the thread body, which is std::terminate. Now it is caught,
  // counted, and the first one is stashed; wait_idle still returns.
  util::ThreadPool pool(2);
  EXPECT_EQ(pool.task_errors(), 0u);
  EXPECT_EQ(pool.take_task_error(), nullptr);

  for (int i = 0; i < 3; ++i) {
    pool.submit([] { throw std::runtime_error("task failed"); });
  }
  pool.wait_idle();
  EXPECT_EQ(pool.task_errors(), 3u);

  std::exception_ptr error = pool.take_task_error();
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  // The slot holds only the first error and clears on take.
  EXPECT_EQ(pool.take_task_error(), nullptr);

  // The workers survived and still run tasks.
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 10);
  EXPECT_EQ(pool.task_errors(), 3u);  // unchanged by successful tasks
}

TEST(ThreadPool, SizeAndPendingAccessors) {
  util::ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.pending(), 0u);
  EXPECT_EQ(pool.in_flight(), 0u);

  // Park both workers so further submissions stay queued.
  std::atomic<int> parked{0};
  std::atomic<bool> release{false};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&] {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (parked.load() < 2) std::this_thread::yield();
  for (int i = 0; i < 5; ++i) {
    pool.submit([] {});
  }
  EXPECT_EQ(pool.pending(), 5u);
  EXPECT_EQ(pool.in_flight(), 7u);
  release.store(true);
  pool.wait_idle();
  EXPECT_EQ(pool.pending(), 0u);
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST(ThreadPool, ShutdownDrainsPendingTasks) {
  // Regression: destroying a pool while tasks are still queued must run
  // every one of them (drain semantics), not drop the backlog.
  std::atomic<int> count{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        count.fetch_add(1);
      });
    }
  }  // destructor joins while most of the 64 tasks are still pending
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, WorkerBusyTimeAccumulatesPerWorker) {
  util::ThreadPool pool(2);
  ASSERT_EQ(pool.worker_busy_ms().size(), 2u);
  for (double ms : pool.worker_busy_ms()) EXPECT_EQ(ms, 0.0);

  for (int i = 0; i < 32; ++i) {
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  pool.wait_idle();
  const std::vector<double> busy = pool.worker_busy_ms();
  ASSERT_EQ(busy.size(), 2u);
  // 32 x 1ms split across 2 workers: total busy time must reflect the
  // sleeps (this is what the bench per-worker histogram records, so a
  // single-threaded pathology shows as one hot lane and zeros).
  EXPECT_GE(busy[0] + busy[1], 16.0);
  for (double ms : busy) EXPECT_GE(ms, 0.0);
}

TEST(ThreadPool, ConfigureDefaultPoolValidatesAndLocksAfterCreation) {
  EXPECT_THROW(util::configure_default_pool(0), std::invalid_argument);
  EXPECT_THROW(util::configure_default_pool(100000), std::invalid_argument);

  // Force creation, then verify the introspection agrees and late
  // reconfiguration is rejected loudly instead of silently ignored.
  const std::size_t current = util::default_pool().size();
  EXPECT_GE(current, 1u);
  EXPECT_EQ(util::default_pool_threads(), current);
  EXPECT_NO_THROW(util::configure_default_pool(current));  // idempotent
  EXPECT_THROW(util::configure_default_pool(current + 1), std::logic_error);
}

// --------------------------------------------------------------- hash --

TEST(Hash, Fnv1aStableAndSensitive) {
  EXPECT_EQ(util::fnv1a64("abc"), util::fnv1a64("abc"));
  EXPECT_NE(util::fnv1a64("abc"), util::fnv1a64("abd"));
  EXPECT_NE(util::fnv1a64("abc"), util::fnv1a64("abc", 123));
}

TEST(Hash, CommitIdShapeAndDeterminism) {
  const std::string id = util::commit_id("content");
  EXPECT_EQ(id.size(), 40u);
  EXPECT_EQ(id, util::commit_id("content"));
  EXPECT_NE(id, util::commit_id("content2"));
  for (char c : id) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
}

TEST(Hash, CommitIdIsThreeSeededFnvStreams) {
  for (const std::string_view content :
       {std::string_view(""), std::string_view("content"),
        std::string_view("diff --git a/x.c b/x.c\n\xff\x80\n")}) {
    const std::string expected =
        util::to_hex(util::fnv1a64(content)) +
        util::to_hex(util::fnv1a64(content, 0x84222325cbf29ce4ULL)) +
        util::to_hex(util::fnv1a64(content, 0x9e3779b97f4a7c15ULL)).substr(0, 8);
    EXPECT_EQ(util::commit_id(content), expected);
  }
}

TEST(Hash, ToHexPadsTo16) {
  EXPECT_EQ(util::to_hex(0), "0000000000000000");
  EXPECT_EQ(util::to_hex(255), "00000000000000ff");
}

TEST(Hash, ParseHexInvertsToHex) {
  for (const std::uint64_t value : {std::uint64_t{0}, std::uint64_t{255},
                                    util::fnv1a64("content"), ~std::uint64_t{0}}) {
    std::uint64_t parsed = 1;
    ASSERT_TRUE(util::parse_hex(util::to_hex(value), parsed));
    EXPECT_EQ(parsed, value);
  }
  std::uint64_t untouched = 7;
  for (const std::string_view bad :
       {std::string_view(""), std::string_view("0123"),
        std::string_view("0123456789ABCDEF"), std::string_view("0123456789abcdeg"),
        std::string_view("0123456789abcdef0")}) {
    EXPECT_FALSE(util::parse_hex(bad, untouched)) << bad;
  }
  EXPECT_EQ(untouched, 7u);
}

}  // namespace
}  // namespace patchdb
