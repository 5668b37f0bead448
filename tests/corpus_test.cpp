// Tests for the corpus simulator: taxonomy, code generation, mutation
// templates, commit fabrication, the NVD/remote/crawler pipeline, the
// oracle, and world assembly.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/codegen.h"
#include "corpus/mutate.h"
#include "corpus/nvd.h"
#include "corpus/oracle.h"
#include "corpus/repo.h"
#include "corpus/taxonomy.h"
#include "corpus/world.h"
#include "diff/apply.h"
#include "diff/parse.h"
#include "diff/render.h"
#include "lang/parser.h"
#include "util/hash.h"
#include "util/rng.h"

namespace patchdb {
namespace {

using corpus::PatchType;

// ----------------------------------------------------------- taxonomy --

TEST(Taxonomy, SecurityTypePredicate) {
  EXPECT_TRUE(corpus::is_security_type(PatchType::kBoundCheck));
  EXPECT_TRUE(corpus::is_security_type(PatchType::kOther));
  EXPECT_FALSE(corpus::is_security_type(PatchType::kRefactor));
  EXPECT_FALSE(corpus::is_security_type(PatchType::kDocs));
}

TEST(Taxonomy, DistributionsSumToOne) {
  for (const corpus::TypeDistribution& dist :
       {corpus::nvd_type_distribution(), corpus::wild_type_distribution(),
        corpus::patchdb_type_distribution()}) {
    double total = 0.0;
    for (double w : dist) total += w;
    // Table V's own column sums to 100.1% due to rounding; the sampler
    // normalizes, so only near-1 is required.
    EXPECT_NEAR(total, 1.0, 2e-3);
  }
}

TEST(Taxonomy, Fig6ShapesEncoded) {
  const auto nvd = corpus::nvd_type_distribution();
  const auto wild = corpus::wild_type_distribution();
  // NVD: Type 11 (index 10) is the head; wild: Type 8 (index 7) is.
  EXPECT_GT(nvd[10], nvd[7]);
  EXPECT_GT(wild[7], wild[10]);
  EXPECT_LE(wild[10], 0.06);  // Type 11 drops to ~5% in the wild
}

TEST(Taxonomy, NamesNonEmpty) {
  for (PatchType t : corpus::security_types()) {
    EXPECT_FALSE(corpus::patch_type_name(t).empty());
  }
  for (PatchType t : corpus::nonsecurity_types()) {
    EXPECT_FALSE(corpus::patch_type_name(t).empty());
  }
}

// ------------------------------------------------------------ codegen --

TEST(Codegen, ContextNamesAreConsistent) {
  util::Rng rng(1);
  const corpus::FunctionContext ctx = corpus::draw_context(rng);
  EXPECT_FALSE(ctx.func_name.empty());
  EXPECT_NE(ctx.val, ctx.tmp);
  EXPECT_GE(ctx.buf_size, 16);
  EXPECT_LE(ctx.buf_size, 128);
}

TEST(Codegen, GeneratedFunctionParses) {
  util::Rng rng(2);
  const corpus::FunctionContext ctx = corpus::draw_context(rng);
  const auto body = corpus::filler_statements(rng, ctx, 6);
  const auto fn = corpus::make_function(ctx, {body});
  const lang::ParsedFile parsed = lang::parse_file(fn);
  ASSERT_EQ(parsed.functions.size(), 1u);
  EXPECT_EQ(parsed.functions[0].name, ctx.func_name);
}

TEST(Codegen, FileHasIncludesAndFunctions) {
  util::Rng rng(3);
  const corpus::FunctionContext ctx = corpus::draw_context(rng);
  const auto fn = corpus::make_function(ctx, {corpus::filler_statements(rng, ctx, 3)});
  const std::vector<std::span<const std::string>> functions = {fn, fn};
  const auto file = corpus::make_file(rng, functions);
  EXPECT_EQ(file[0], "#include <stdio.h>");
  const lang::ParsedFile parsed =
      lang::parse_file(std::vector<std::string>(file.begin(), file.end()));
  EXPECT_EQ(parsed.functions.size(), 2u);
}

// ------------------------------------------------------------- mutate --

class MutationPerType : public ::testing::TestWithParam<PatchType> {};

TEST_P(MutationPerType, BeforeAfterDifferAndParse) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::Rng rng(seed * 17 + 1);
    const corpus::FunctionContext ctx = corpus::draw_context(rng);
    const corpus::MutationResult m = corpus::make_mutation(rng, ctx, GetParam());
    EXPECT_NE(m.before, m.after) << "seed " << seed;
    EXPECT_FALSE(m.message.empty());
    EXPECT_EQ(m.type, GetParam());
    // Both versions must still be parseable as a single function.
    EXPECT_EQ(lang::parse_file(m.before).functions.size(), 1u);
    // (AFTER may change the signature; it still must contain exactly one
    //  function body.)
    EXPECT_GE(lang::parse_file(m.after).functions.size(),
              GetParam() == PatchType::kFuncDeclaration ? 0u : 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, MutationPerType,
    ::testing::Values(PatchType::kBoundCheck, PatchType::kNullCheck,
                      PatchType::kSanityCheck, PatchType::kVarDefinition,
                      PatchType::kVarValue, PatchType::kFuncDeclaration,
                      PatchType::kFuncParameter, PatchType::kFuncCall,
                      PatchType::kJumpStatement, PatchType::kMoveStatement,
                      PatchType::kRedesign, PatchType::kOther,
                      PatchType::kNewFeature, PatchType::kRefactor,
                      PatchType::kPerfFix, PatchType::kLogicBugFix,
                      PatchType::kStyle, PatchType::kDocs),
    [](const ::testing::TestParamInfo<PatchType>& info) {
      return "type_" + std::to_string(static_cast<int>(info.param));
    });

TEST(Mutation, MoveStatementIsAPureMove) {
  util::Rng rng(9);
  const corpus::FunctionContext ctx = corpus::draw_context(rng);
  const corpus::MutationResult m =
      corpus::make_mutation(rng, ctx, PatchType::kMoveStatement);
  // Same multiset of lines, different order.
  std::vector<std::string> b = m.before;
  std::vector<std::string> a = m.after;
  std::sort(b.begin(), b.end());
  std::sort(a.begin(), a.end());
  EXPECT_EQ(a, b);
}

// --------------------------------------------------------------- repo --

class CommitPerType : public ::testing::TestWithParam<PatchType> {};

TEST_P(CommitPerType, CommitIsWellFormed) {
  util::Rng rng(static_cast<std::uint64_t>(static_cast<int>(GetParam())) * 31 + 7);
  corpus::CommitOptions opt;
  opt.keep_snapshots = true;
  const corpus::CommitRecord record =
      corpus::make_commit(rng, "librepo", GetParam(), opt);

  EXPECT_EQ(record.patch.commit.size(), 40u);
  EXPECT_EQ(record.truth.type, GetParam());
  EXPECT_EQ(record.truth.is_security, corpus::is_security_type(GetParam()));
  EXPECT_FALSE(record.patch.files.empty());
  EXPECT_GT(record.patch.hunk_count(), 0u);

  // The rendered patch must survive a parse round-trip.
  const diff::Patch reparsed = diff::parse_patch(diff::render_patch(record.patch));
  EXPECT_EQ(reparsed.files.size(), record.patch.files.size());
  EXPECT_EQ(reparsed.commit, record.patch.commit);

  // Snapshots: the diff applied to BEFORE must produce AFTER.
  ASSERT_FALSE(record.snapshots.empty());
  for (const corpus::FileSnapshot& snap : record.snapshots) {
    const diff::FileDiff* fd = nullptr;
    for (const diff::FileDiff& f : record.patch.files) {
      if (f.new_path == snap.path) fd = &f;
    }
    ASSERT_NE(fd, nullptr);
    EXPECT_EQ(diff::apply_file_diff(snap.before, *fd), snap.after);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, CommitPerType,
    ::testing::Values(PatchType::kBoundCheck, PatchType::kNullCheck,
                      PatchType::kSanityCheck, PatchType::kVarDefinition,
                      PatchType::kVarValue, PatchType::kFuncDeclaration,
                      PatchType::kFuncParameter, PatchType::kFuncCall,
                      PatchType::kJumpStatement, PatchType::kMoveStatement,
                      PatchType::kRedesign, PatchType::kOther,
                      PatchType::kNewFeature, PatchType::kRefactor,
                      PatchType::kPerfFix, PatchType::kLogicBugFix,
                      PatchType::kStyle, PatchType::kDocs),
    [](const ::testing::TestParamInfo<PatchType>& info) {
      return "type_" + std::to_string(static_cast<int>(info.param));
    });

TEST(Repo, NoiseFilesInjectedAtConfiguredRate) {
  util::Rng rng(13);
  corpus::CommitOptions opt;
  opt.noise_file_prob = 1.0;
  const corpus::CommitRecord record =
      corpus::make_commit(rng, "r", PatchType::kNullCheck, opt);
  bool has_changelog = false;
  for (const diff::FileDiff& fd : record.patch.files) {
    if (fd.new_path == "ChangeLog") has_changelog = true;
  }
  EXPECT_TRUE(has_changelog);
}

TEST(Repo, VersionBumpIsLargeAndNonSecurity) {
  util::Rng rng(17);
  const corpus::CommitRecord bump = corpus::make_version_bump_commit(rng, "r");
  EXPECT_FALSE(bump.truth.is_security);
  EXPECT_GE(bump.patch.files.size(), 6u);
}

TEST(Repo, DrawPatchTypeHonorsSecurityProb) {
  util::Rng rng(19);
  std::size_t security = 0;
  for (int i = 0; i < 2000; ++i) {
    security += corpus::is_security_type(
        corpus::draw_patch_type(rng, corpus::nvd_type_distribution(), 0.08));
  }
  EXPECT_NEAR(static_cast<double>(security) / 2000.0, 0.08, 0.02);
}

TEST(Repo, CommitIdsAreUnique) {
  util::Rng rng(23);
  std::set<std::string> ids;
  for (int i = 0; i < 200; ++i) {
    ids.insert(
        corpus::make_commit(rng, "r", PatchType::kBoundCheck).patch.commit);
  }
  EXPECT_EQ(ids.size(), 200u);
}

// ----------------------------------------------------- remote + crawl --

TEST(Remote, FetchMissesAre404) {
  corpus::RemoteStore store;
  store.put("http://x/1", "body");
  EXPECT_TRUE(store.fetch("http://x/1").has_value());
  EXPECT_FALSE(store.fetch("http://x/2").has_value());
}

TEST(Crawler, CollectsAndFiltersPatches) {
  util::Rng rng(31);
  corpus::RemoteStore store;
  std::vector<corpus::NvdEntry> entries;

  // Entry 0: good patch with a ChangeLog companion (must be stripped).
  corpus::CommitOptions opt;
  opt.noise_file_prob = 1.0;
  const corpus::CommitRecord good =
      corpus::make_commit(rng, "repo", PatchType::kBoundCheck, opt);
  const std::string good_url = corpus::github_commit_url("repo", good.patch.commit);
  store.put(good_url + ".patch", diff::render_patch(good.patch));
  entries.push_back({"CVE-2020-0001", {good_url}, {good_url}, 7.5, "CWE-119", 2020});

  // Entry 1: no patch-tagged link at all.
  entries.push_back({"CVE-2020-0002", {"https://advisory.example"}, {}, 5.0, "CWE-20", 2020});

  // Entry 2: dead link.
  const std::string dead_url = corpus::github_commit_url("repo", "feedfeed");
  entries.push_back({"CVE-2020-0003", {dead_url}, {dead_url}, 6.1, "CWE-476", 2020});

  // Entry 3: unparseable page.
  const std::string junk_url = corpus::github_commit_url("repo", "junkjunk");
  store.put(junk_url + ".patch", "this is not a patch");
  entries.push_back({"CVE-2020-0004", {junk_url}, {junk_url}, 4.3, "CWE-710", 2020});

  corpus::NvdCrawler crawler(store);
  const auto collected = crawler.crawl(entries);
  const corpus::CrawlStats& stats = crawler.stats();

  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].cve_id, "CVE-2020-0001");
  EXPECT_EQ(stats.entries_total, 4u);
  EXPECT_EQ(stats.entries_without_patch_link, 1u);
  EXPECT_EQ(stats.links_dead, 1u);
  EXPECT_EQ(stats.parse_failures, 1u);
  EXPECT_GE(stats.dropped_non_cpp_files, 1u);  // the ChangeLog
  EXPECT_EQ(stats.patches_collected, 1u);
  for (const diff::FileDiff& fd : collected[0].patch.files) {
    EXPECT_TRUE(diff::is_cpp_path(fd.new_path));
  }
}

// -------------------------------------------------------------- oracle --

TEST(Oracle, CountsEffortAndAnswersTruthfully) {
  corpus::Oracle oracle;
  oracle.add("c1", {true, PatchType::kBoundCheck});
  oracle.add("c2", {false, PatchType::kRefactor});
  EXPECT_TRUE(oracle.verify_security("c1"));
  EXPECT_FALSE(oracle.verify_security("c2"));
  EXPECT_EQ(oracle.effort(), 2u);
  oracle.reset_effort();
  EXPECT_EQ(oracle.effort(), 0u);
}

TEST(Oracle, UnknownCommitThrows) {
  corpus::Oracle oracle;
  EXPECT_THROW(oracle.verify_security("nope"), std::out_of_range);
}

// -------------------------------------------------------------- world --

TEST(World, SmallWorldEndToEnd) {
  corpus::WorldConfig config;
  config.repos = 5;
  config.nvd_security = 40;
  config.wild_pool = 300;
  config.wild_security_rate = 0.10;
  config.seed = 7;
  const corpus::World world = corpus::build_world(config);

  // Crawl losses: missing links and dead links shrink the collected set.
  EXPECT_LE(world.nvd_security.size(), config.nvd_security);
  EXPECT_GT(world.nvd_security.size(), config.nvd_security / 2);
  EXPECT_EQ(world.wild.size(), config.wild_pool);
  EXPECT_EQ(world.nvd_entries.size(), config.nvd_security);
  EXPECT_GT(world.crawl_stats.entries_without_patch_link, 0u);

  // Every collected NVD patch is security ground truth (minus the rare
  // wrong-link bumps) and carries snapshots.
  std::size_t security = 0;
  std::size_t with_snapshots = 0;
  for (const corpus::CommitRecord& r : world.nvd_security) {
    security += r.truth.is_security;
    with_snapshots += !r.snapshots.empty();
  }
  EXPECT_GE(security, world.nvd_security.size() * 9 / 10);
  EXPECT_GE(with_snapshots, security);

  // The wild pool's security rate matches the configuration.
  std::size_t wild_security = 0;
  for (const corpus::CommitRecord& r : world.wild) {
    wild_security += r.truth.is_security;
    EXPECT_TRUE(world.oracle.known(r.patch.commit));
  }
  const double rate =
      static_cast<double>(wild_security) / static_cast<double>(world.wild.size());
  EXPECT_NEAR(rate, 0.10, 0.04);
}

TEST(World, NvdEntriesCarryEnhancedMetadata) {
  corpus::WorldConfig config;
  config.repos = 3;
  config.nvd_security = 30;
  config.wild_pool = 10;
  config.seed = 4242;
  const corpus::World world = corpus::build_world(config);
  for (const corpus::NvdEntry& e : world.nvd_entries) {
    EXPECT_EQ(e.cve_id.rfind("CVE-", 0), 0u);
    EXPECT_GE(e.year, 1999);
    EXPECT_LE(e.year, 2019);
    EXPECT_GE(e.cvss, 1.0);
    EXPECT_LE(e.cvss, 10.0);
    EXPECT_EQ(e.cwe.rfind("CWE-", 0), 0u);
  }
}

TEST(World, CweMappingCoversAllTypes) {
  std::set<std::string> seen;
  for (int t = 1; t <= 12; ++t) {
    const std::string cwe = corpus::cwe_for_type(t);
    EXPECT_EQ(cwe.rfind("CWE-", 0), 0u);
    seen.insert(cwe);
  }
  EXPECT_GE(seen.size(), 8u);  // distinct CWEs for distinct fix patterns
}

TEST(World, DeterministicForSameSeed) {
  corpus::WorldConfig config;
  config.repos = 3;
  config.nvd_security = 10;
  config.wild_pool = 50;
  config.seed = 99;
  const corpus::World a = corpus::build_world(config);
  const corpus::World b = corpus::build_world(config);
  ASSERT_EQ(a.wild.size(), b.wild.size());
  for (std::size_t i = 0; i < a.wild.size(); ++i) {
    EXPECT_EQ(a.wild[i].patch.commit, b.wild[i].patch.commit);
  }
}

TEST(World, ZeroReposRejected) {
  corpus::WorldConfig config;
  config.repos = 0;
  EXPECT_THROW(corpus::build_world(config), std::invalid_argument);
}

// Everything a world holds, hashed with a length prefix per field: the
// repository names; for every NVD and wild record its rendered patch,
// repository, ground truth (its own and the oracle's) and every snapshot
// line; every NvdEntry field (CVSS by bit pattern) with the page behind
// each patch-tagged link and the oracle's truth for its commit; the
// crawl stats, the page count and the oracle's size.
std::string world_digest(const corpus::World& world) {
  std::uint64_t hash = util::fnv1a64("");
  auto text = [&hash](std::string_view field) {
    hash = util::fnv1a64(std::to_string(field.size()) + ":", hash);
    hash = util::fnv1a64(field, hash);
  };
  auto number = [&text](std::uint64_t value) { text(std::to_string(value)); };
  auto truth = [&number](const corpus::GroundTruth& t) {
    number(t.is_security ? 1 : 0);
    number(static_cast<std::uint64_t>(t.type));
  };
  auto lines = [&](const std::vector<std::string>& file) {
    number(file.size());
    for (const std::string& line : file) text(line);
  };

  for (const std::string& name : world.repo_names) text(name);
  for (const auto* records : {&world.nvd_security, &world.wild}) {
    number(records->size());
    for (const corpus::CommitRecord& r : *records) {
      text(diff::render_patch(r.patch));
      text(r.repo);
      truth(r.truth);
      truth(world.oracle.truth(r.patch.commit));
      number(r.snapshots.size());
      for (const corpus::FileSnapshot& snap : r.snapshots) {
        text(snap.path);
        lines(snap.before);
        lines(snap.after);
      }
    }
  }
  number(world.nvd_entries.size());
  for (const corpus::NvdEntry& e : world.nvd_entries) {
    text(e.cve_id);
    number(e.references.size());
    for (const std::string& url : e.references) text(url);
    number(e.patch_tagged.size());
    for (const std::string& url : e.patch_tagged) {
      text(url);
      const auto page = world.remote.fetch(url + ".patch");
      number(page.has_value() ? 1 : 0);
      if (page.has_value()) text(*page);
      const std::string commit = url.substr(url.rfind('/') + 1);
      number(world.oracle.known(commit) ? 1 : 0);
      if (world.oracle.known(commit)) truth(world.oracle.truth(commit));
    }
    std::uint64_t cvss_bits = 0;
    static_assert(sizeof(cvss_bits) == sizeof(e.cvss));
    std::memcpy(&cvss_bits, &e.cvss, sizeof(cvss_bits));
    number(cvss_bits);
    text(e.cwe);
    number(static_cast<std::uint64_t>(e.year));
  }
  const corpus::CrawlStats& s = world.crawl_stats;
  for (const std::size_t count :
       {s.entries_total, s.entries_without_patch_link, s.links_fetched,
        s.links_dead, s.parse_failures, s.dropped_non_cpp_files,
        s.dropped_empty_after_filter, s.patches_collected}) {
    number(count);
  }
  number(world.remote.page_count());
  number(world.oracle.size());
  return util::to_hex(hash);
}

// Two small worlds, pinned byte for byte: snapshots on for the NVD set
// and off for the wild pool (the defaults), with enough wrong links that
// version-bump pages appear. The constants were recorded with the
// generator that copied every line into whole files before diffing
// them; building lines once and diffing views must not move a byte or
// an RNG draw.
TEST(World, ContentsPinned) {
  corpus::WorldConfig config;
  config.repos = 4;
  config.nvd_security = 40;
  config.wild_pool = 200;
  config.wrong_link_prob = 0.1;
  const std::pair<std::uint64_t, std::string_view> pins[] = {
      {11, "2f9df1920d9f9556"},
      {2021, "d44b6bbaad2ab2a4"},
  };
  for (const auto& [seed, expected] : pins) {
    config.seed = seed;
    const corpus::World world = corpus::build_world(config);
    EXPECT_EQ(world_digest(world), expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace patchdb
