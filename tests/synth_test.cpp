// Tests for the oversampling module: the eight Fig. 5 variants and the
// end-to-end patch synthesizer.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "corpus/repo.h"
#include "corpus/world.h"
#include "diff/apply.h"
#include "diff/parse.h"
#include "diff/render.h"
#include "lang/parser.h"
#include "synth/synthesize.h"
#include "synth/variants.h"
#include "util/hash.h"
#include "util/rng.h"

namespace patchdb {
namespace {

using synth::IfVariant;

// ----------------------------------------------------------- variants --

class VariantRewriteTest : public ::testing::TestWithParam<IfVariant> {};

TEST_P(VariantRewriteTest, RewritesSingleLineIf) {
  std::vector<std::string> lines = {
      "void f(void) {",
      "    if (x > 0) {",
      "        y();",
      "    }",
      "}",
  };
  const std::vector<std::string> replacement =
      synth::apply_variant(lines[1], "x > 0", GetParam());
  ASSERT_FALSE(replacement.empty());
  lines.erase(lines.begin() + 1);
  lines.insert(lines.begin() + 1, replacement.begin(), replacement.end());

  // The original condition must still appear somewhere (all variants
  // preserve the predicate), the file must still parse, and the
  // controlled statement must still be guarded by an if.
  std::string joined;
  for (const std::string& l : lines) joined += l + "\n";
  EXPECT_NE(joined.find("x > 0"), std::string::npos);
  EXPECT_NE(joined.find("_SYS_"), std::string::npos);

  const lang::ParsedFile parsed = lang::parse_file(lines);
  EXPECT_GE(parsed.ifs.size(), 1u);
  EXPECT_EQ(parsed.functions.size(), 1u);

  // Indentation of the new if head matches the original.
  bool found_guarded = false;
  for (const std::string& l : lines) {
    if (l.rfind("    if", 0) == 0 && l.find("{") != std::string::npos) {
      found_guarded = true;
    }
  }
  EXPECT_TRUE(found_guarded);
}

INSTANTIATE_TEST_SUITE_P(AllEight, VariantRewriteTest,
                         ::testing::ValuesIn(synth::all_variants()),
                         [](const ::testing::TestParamInfo<IfVariant>& info) {
                           return "v" + std::to_string(static_cast<int>(info.param));
                         });

TEST(Variants, SetupLinesMatchFig5Shapes) {
  const synth::VariantRewrite r1 =
      synth::rewrite_if(IfVariant::kOrZero, "a == b", "  ");
  ASSERT_EQ(r1.setup.size(), 1u);
  EXPECT_EQ(r1.setup[0], "  const int _SYS_ZERO = 0;");
  EXPECT_EQ(r1.new_if_head, "  if (_SYS_ZERO || (a == b))");

  const synth::VariantRewrite r6 =
      synth::rewrite_if(IfVariant::kFlagClear, "p != NULL", "");
  ASSERT_EQ(r6.setup.size(), 2u);
  EXPECT_EQ(r6.setup[0], "int _SYS_VAL = 1;");
  EXPECT_EQ(r6.setup[1], "if (p != NULL) { _SYS_VAL = 0; }");
  EXPECT_EQ(r6.new_if_head, "if (!_SYS_VAL)");
}

TEST(Variants, RejectsNonIfLines) {
  EXPECT_TRUE(synth::apply_variant("int x = 1;", "x", IfVariant::kOrZero).empty());
  // An `if` whose condition does not close on its line.
  EXPECT_TRUE(synth::apply_variant("if (x &&", "x", IfVariant::kOrZero).empty());
  EXPECT_TRUE(synth::apply_variant("if x", "x", IfVariant::kOrZero).empty());
}

TEST(Variants, KeepsTrailingBrace) {
  const std::vector<std::string> lines =
      synth::apply_variant("if (a) {", "a", IfVariant::kAndOne);
  ASSERT_FALSE(lines.empty());
  // New head keeps the opening brace on the same line.
  bool brace_head = false;
  for (const std::string& l : lines) {
    if (l.find("_SYS_ONE") != std::string::npos &&
        l.find("{") != std::string::npos) {
      brace_head = true;
    }
  }
  EXPECT_TRUE(brace_head);
}

TEST(Variants, AllNamesDistinct) {
  std::set<std::string> names;
  for (IfVariant v : synth::all_variants()) names.insert(synth::variant_name(v));
  EXPECT_EQ(names.size(), synth::kVariantCount);
}

// --------------------------------------------------------- synthesize --

corpus::CommitRecord record_with_snapshots(std::uint64_t seed,
                                           corpus::PatchType type) {
  util::Rng rng(seed);
  corpus::CommitOptions opt;
  opt.keep_snapshots = true;
  opt.noise_file_prob = 0.0;
  opt.multi_file_prob = 0.0;
  return corpus::make_commit(rng, "repo", type, opt);
}

TEST(Synthesize, ProducesVariantsForCheckPatches) {
  // Not every bound-check patch touches an `if` (some strengthen a loop
  // condition — the paper reports ~70% of security patches involve ifs),
  // so scan seeds until variants appear and then validate them.
  synth::SynthesisOptions opt;
  opt.max_per_patch = 0;  // unlimited
  std::vector<synth::SyntheticPatch> synthetic;
  corpus::CommitRecord record;
  for (std::uint64_t seed = 0; seed < 16 && synthetic.empty(); ++seed) {
    record = record_with_snapshots(seed, corpus::PatchType::kBoundCheck);
    synthetic = synth::synthesize(record, opt, 1);
  }
  ASSERT_FALSE(synthetic.empty());

  for (const synth::SyntheticPatch& s : synthetic) {
    EXPECT_EQ(s.origin_commit, record.patch.commit);
    EXPECT_NE(s.patch.commit, record.patch.commit);
    EXPECT_TRUE(s.truth.is_security);
    EXPECT_FALSE(s.patch.files.empty());
    // The synthetic patch must differ from the natural one.
    EXPECT_NE(diff::render_file_diffs(s.patch.files),
              diff::render_file_diffs(record.patch.files));
    // And it must contain the injected guard.
    EXPECT_NE(diff::render_file_diffs(s.patch.files).find("_SYS_"),
              std::string::npos);
  }
}

TEST(Synthesize, ModifiedBeforeAndAfterBothOccur) {
  synth::SynthesisOptions opt;
  opt.max_per_patch = 0;
  bool any_before = false;
  bool any_after = false;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const corpus::CommitRecord record =
        record_with_snapshots(seed, corpus::PatchType::kSanityCheck);
    for (const auto& s : synth::synthesize(record, opt, seed)) {
      (s.modified_after ? any_after : any_before) = true;
    }
  }
  EXPECT_TRUE(any_before);
  EXPECT_TRUE(any_after);
}

TEST(Synthesize, AfterModificationAppliesOntoOriginalBefore) {
  // When AFTER was modified, the synthetic diff must apply cleanly to the
  // ORIGINAL before-version (paper: original patch + extra modification).
  const corpus::CommitRecord record =
      record_with_snapshots(7, corpus::PatchType::kNullCheck);
  synth::SynthesisOptions opt;
  opt.max_per_patch = 0;
  for (const auto& s : synth::synthesize(record, opt, 2)) {
    for (const diff::FileDiff& fd : s.patch.files) {
      const corpus::FileSnapshot* snap = nullptr;
      for (const auto& candidate : record.snapshots) {
        if (candidate.path == fd.new_path) snap = &candidate;
      }
      ASSERT_NE(snap, nullptr);
      if (s.modified_after) {
        // Applies onto the original BEFORE.
        EXPECT_NO_THROW(diff::apply_file_diff(snap->before, fd));
      } else {
        // Un-applies onto the original AFTER.
        EXPECT_NO_THROW(diff::unapply_file_diff(snap->after, fd));
      }
    }
  }
}

TEST(Synthesize, RespectsPerPatchCap) {
  const corpus::CommitRecord record =
      record_with_snapshots(11, corpus::PatchType::kBoundCheck);
  synth::SynthesisOptions opt;
  opt.max_per_patch = 2;
  EXPECT_LE(synth::synthesize(record, opt, 1).size(), 2u);
}

TEST(Synthesize, NoSnapshotsYieldsNothing) {
  util::Rng rng(13);
  const corpus::CommitRecord record =
      corpus::make_commit(rng, "r", corpus::PatchType::kBoundCheck);  // no snaps
  EXPECT_TRUE(synth::synthesize(record, {}, 1).empty());
}

TEST(Synthesize, NonSecurityOriginStaysNonSecurity) {
  const corpus::CommitRecord record =
      record_with_snapshots(17, corpus::PatchType::kLogicBugFix);
  synth::SynthesisOptions opt;
  opt.max_per_patch = 0;
  for (const auto& s : synth::synthesize(record, opt, 3)) {
    EXPECT_FALSE(s.truth.is_security);
  }
}

TEST(Synthesize, BatchMatchesPerRecordCounts) {
  std::vector<corpus::CommitRecord> records;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    records.push_back(record_with_snapshots(seed + 40, corpus::PatchType::kSanityCheck));
  }
  synth::SynthesisOptions opt;
  opt.max_per_patch = 3;
  const auto all = synth::synthesize_all(records, opt, 5);
  EXPECT_LE(all.size(), records.size() * 3);
  // Deterministic for the same seed.
  const auto again = synth::synthesize_all(records, opt, 5);
  ASSERT_EQ(all.size(), again.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].patch.commit, again[i].patch.commit);
  }
}

TEST(Synthesize, SyntheticPatchesAreDistinct) {
  const corpus::CommitRecord record =
      record_with_snapshots(21, corpus::PatchType::kBoundCheck);
  synth::SynthesisOptions opt;
  opt.max_per_patch = 0;
  std::set<std::string> ids;
  const auto synthetic = synth::synthesize(record, opt, 9);
  for (const auto& s : synthetic) ids.insert(s.patch.commit);
  EXPECT_EQ(ids.size(), synthetic.size());
}

// Every patch synthesize_all makes from the NVD records of two small
// worlds (World.ContentsPinned's), capped as the build caps them and
// uncapped: its origin, variant, modified side and rendered bytes, in
// output order, with the patch count. A change to
// the site search, the rewrite or the re-diff that moves any byte
// changes the hash.
TEST(Synthesize, OutputPinned) {
  corpus::WorldConfig config;
  config.repos = 4;
  config.nvd_security = 40;
  config.wild_pool = 200;
  config.wrong_link_prob = 0.1;
  std::uint64_t hash = util::fnv1a64("");
  auto text = [&hash](std::string_view field) {
    hash = util::fnv1a64(std::to_string(field.size()) + ":", hash);
    hash = util::fnv1a64(field, hash);
  };
  std::size_t patches = 0;
  for (const std::uint64_t seed : {11u, 2021u}) {
    config.seed = seed;
    const corpus::World world = corpus::build_world(config);
    // The build's cap, and none: every (site, variant) job.
    for (const std::size_t cap : {4u, 0u}) {
      for (const synth::SyntheticPatch& s :
           synth::synthesize_all(world.nvd_security, {.max_per_patch = cap},
                                 seed ^ 0x5f5f5f5fULL)) {
        text(s.origin_commit);
        text(std::to_string(static_cast<int>(s.variant)));
        text(s.modified_after ? "after" : "before");
        text(diff::render_patch(s.patch));
        ++patches;
      }
    }
  }
  EXPECT_EQ(patches, 872u);
  EXPECT_EQ(util::to_hex(hash), "4b49b6996eae4a6a");
}

}  // namespace
}  // namespace patchdb
