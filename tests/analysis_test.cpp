// Tests for the semantic analysis subsystem: CFG construction, the
// dataflow passes, the checker registry (one planted-defect fixture per
// checker, fixed on the AFTER side), the BEFORE/AFTER diagnostic diff,
// and the extended feature-space layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyze.h"
#include "analysis/cfg.h"
#include "analysis/checkers.h"
#include "analysis/dataflow.h"
#include "analysis/report.h"
#include "corpus/world.h"
#include "diff/parse.h"
#include "feature/features.h"
#include "util/hash.h"

namespace patchdb {
namespace {

using analysis::CheckerId;

// ------------------------------------------------------------- CFG --

TEST(Cfg, StraightLineFunctionHasUnitCyclomatic) {
  const auto cfgs = analysis::build_cfgs(
      "int add(int a, int b)\n"
      "{\n"
      "    int c = a + b;\n"
      "    return c;\n"
      "}\n");
  ASSERT_EQ(cfgs.size(), 1u);
  const analysis::Cfg& cfg = cfgs[0];
  EXPECT_EQ(cfg.function, "add");
  EXPECT_EQ(cfg.cyclomatic(), 1u);
  // Entry reaches the body, and the exit block is reachable.
  EXPECT_FALSE(cfg.blocks[analysis::Cfg::kEntry].succs.empty());
  EXPECT_FALSE(cfg.blocks[analysis::Cfg::kExit].preds.empty());
}

TEST(Cfg, IfElseAddsOneDecisionPoint) {
  const auto cfgs = analysis::build_cfgs(
      "int sign(int x)\n"
      "{\n"
      "    if (x < 0) {\n"
      "        return -1;\n"
      "    } else {\n"
      "        return 1;\n"
      "    }\n"
      "}\n");
  ASSERT_EQ(cfgs.size(), 1u);
  const analysis::Cfg& cfg = cfgs[0];
  EXPECT_EQ(cfg.cyclomatic(), 2u);
  // Some block (the condition header) has two successors.
  const bool has_branch =
      std::any_of(cfg.blocks.begin(), cfg.blocks.end(),
                  [](const analysis::BasicBlock& b) { return b.succs.size() == 2; });
  EXPECT_TRUE(has_branch);
}

TEST(Cfg, WhileLoopHasBackEdge) {
  const auto cfgs = analysis::build_cfgs(
      "int count(int n)\n"
      "{\n"
      "    int i = 0;\n"
      "    while (i < n) {\n"
      "        i++;\n"
      "    }\n"
      "    return i;\n"
      "}\n");
  ASSERT_EQ(cfgs.size(), 1u);
  const analysis::Cfg& cfg = cfgs[0];
  EXPECT_EQ(cfg.cyclomatic(), 2u);
  // A back edge: some block's successor list contains an earlier block.
  bool back_edge = false;
  for (const analysis::BasicBlock& b : cfg.blocks) {
    for (std::size_t s : b.succs) {
      if (s != analysis::Cfg::kExit && s < b.id) back_edge = true;
    }
  }
  EXPECT_TRUE(back_edge);
}

TEST(Cfg, ForLoopCountsLikeWhile) {
  const auto cfgs = analysis::build_cfgs(
      "int sum(int n)\n"
      "{\n"
      "    int total = 0;\n"
      "    for (int i = 0; i < n; i++) {\n"
      "        total += i;\n"
      "    }\n"
      "    return total;\n"
      "}\n");
  ASSERT_EQ(cfgs.size(), 1u);
  EXPECT_EQ(cfgs[0].cyclomatic(), 2u);
}

TEST(Cfg, NestedBranchesRaiseCyclomatic) {
  const auto cfgs = analysis::build_cfgs(
      "int classify(int x, int y)\n"
      "{\n"
      "    if (x > 0) {\n"
      "        if (y > 0) {\n"
      "            return 1;\n"
      "        }\n"
      "        return 2;\n"
      "    }\n"
      "    while (y < 0) {\n"
      "        y++;\n"
      "    }\n"
      "    return 0;\n"
      "}\n");
  ASSERT_EQ(cfgs.size(), 1u);
  EXPECT_EQ(cfgs[0].cyclomatic(), 4u);
}

TEST(Cfg, MultipleFunctionsYieldMultipleGraphs) {
  const auto cfgs = analysis::build_cfgs(
      "static int one(void)\n"
      "{\n"
      "    return 1;\n"
      "}\n"
      "\n"
      "int two(void)\n"
      "{\n"
      "    return 2;\n"
      "}\n");
  ASSERT_EQ(cfgs.size(), 2u);
  EXPECT_EQ(cfgs[0].function, "one");
  EXPECT_EQ(cfgs[1].function, "two");
}

TEST(Cfg, PointerParamsAreRecorded) {
  const auto cfgs = analysis::build_cfgs(
      "int peek(struct buf *b, const char *name)\n"
      "{\n"
      "    return b->len;\n"
      "}\n");
  ASSERT_EQ(cfgs.size(), 1u);
  const auto& params = cfgs[0].pointer_params;
  EXPECT_NE(std::find(params.begin(), params.end(), "b"), params.end());
  EXPECT_NE(std::find(params.begin(), params.end(), "name"), params.end());
}

// -------------------------------------------------------- dataflow --

TEST(Dataflow, AllocatorPredicates) {
  EXPECT_TRUE(analysis::is_allocator("malloc"));
  EXPECT_TRUE(analysis::is_allocator("kzalloc"));
  EXPECT_FALSE(analysis::is_allocator("free"));
  EXPECT_TRUE(analysis::is_deallocator("kfree"));
  EXPECT_FALSE(analysis::is_deallocator("malloc"));
}

TEST(Dataflow, BranchMergeKeepsMaybeUninit) {
  // `r` is only assigned on one arm, so it is maybe-uninit at the join.
  const auto cfgs = analysis::build_cfgs(
      "int pick(int x)\n"
      "{\n"
      "    int r;\n"
      "    if (x) {\n"
      "        r = 1;\n"
      "    }\n"
      "    return r;\n"
      "}\n");
  ASSERT_EQ(cfgs.size(), 1u);
  const auto diags = analysis::run_checkers(cfgs[0]);
  const bool flagged = std::any_of(
      diags.begin(), diags.end(), [](const analysis::Diagnostic& d) {
        return d.checker == CheckerId::kUninitUse && d.symbol == "r";
      });
  EXPECT_TRUE(flagged);
}

TEST(Dataflow, InitializedDeclarationIsNotFlagged) {
  const auto cfgs = analysis::build_cfgs(
      "int pick(int x)\n"
      "{\n"
      "    int r = 0;\n"
      "    if (x) {\n"
      "        r = 1;\n"
      "    }\n"
      "    return r;\n"
      "}\n");
  ASSERT_EQ(cfgs.size(), 1u);
  for (const analysis::Diagnostic& d : analysis::run_checkers(cfgs[0])) {
    EXPECT_NE(d.checker, CheckerId::kUninitUse) << d.message;
  }
}

// -------------------------------------------- checker fixtures --
// One fixture per checker: the BEFORE version plants the defect (the
// checker must report it), the AFTER version fixes it (the analysis
// must report the diagnostic as resolved and the AFTER side clean).

struct CheckerFixture {
  CheckerId checker;
  const char* before;
  const char* after;
};

std::size_t count_of(const std::vector<analysis::Diagnostic>& diags, CheckerId id) {
  return static_cast<std::size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [id](const analysis::Diagnostic& d) { return d.checker == id; }));
}

void expect_planted_and_resolved(const CheckerFixture& fixture) {
  const std::size_t c = static_cast<std::size_t>(fixture.checker);
  const analysis::PatchAnalysis pa =
      analysis::analyze_versions(fixture.before, fixture.after);
  EXPECT_GE(count_of(pa.before.diagnostics, fixture.checker), 1u)
      << analysis::checker_name(fixture.checker) << ": defect not detected in BEFORE";
  EXPECT_EQ(count_of(pa.after.diagnostics, fixture.checker), 0u)
      << analysis::checker_name(fixture.checker) << ": AFTER still dirty";
  EXPECT_GE(pa.resolved_by_checker[c], 1u)
      << analysis::checker_name(fixture.checker) << ": fix not reported as resolved";
  EXPECT_EQ(pa.introduced_by_checker[c], 0u);
}

TEST(Checkers, UncheckedAllocFixture) {
  expect_planted_and_resolved(
      {CheckerId::kUncheckedAlloc,
       "int fill(struct buf *b, int n)\n"
       "{\n"
       "    char *p;\n"
       "    p = malloc(n);\n"
       "    p[0] = 0;\n"
       "    return 0;\n"
       "}\n",
       "int fill(struct buf *b, int n)\n"
       "{\n"
       "    char *p;\n"
       "    p = malloc(n);\n"
       "    if (!p)\n"
       "        return -1;\n"
       "    p[0] = 0;\n"
       "    return 0;\n"
       "}\n"});
}

TEST(Checkers, MissingBoundsCheckFixture) {
  expect_planted_and_resolved(
      {CheckerId::kMissingBoundsCheck,
       "void copy(char *dst, const char *src)\n"
       "{\n"
       "    strcpy(dst, src);\n"
       "}\n",
       "void copy(char *dst, const char *src)\n"
       "{\n"
       "    strncpy(dst, src, sizeof(dst) - 1);\n"
       "}\n"});
}

TEST(Checkers, IndexBoundsCheckFixture) {
  expect_planted_and_resolved(
      {CheckerId::kMissingBoundsCheck,
       "int get(int *table, int idx)\n"
       "{\n"
       "    return table[idx];\n"
       "}\n",
       "int get(int *table, int idx)\n"
       "{\n"
       "    if (idx < 0 || idx >= TABLE_SIZE)\n"
       "        return -1;\n"
       "    return table[idx];\n"
       "}\n"});
}

TEST(Checkers, UseAfterFreeFixture) {
  expect_planted_and_resolved(
      {CheckerId::kUseAfterFree,
       "void drop(struct node *n)\n"
       "{\n"
       "    free(n);\n"
       "    n->next = 0;\n"
       "}\n",
       "void drop(struct node *n)\n"
       "{\n"
       "    n->next = 0;\n"
       "    free(n);\n"
       "}\n"});
}

TEST(Checkers, DoubleFreeIsAlsoUseAfterFree) {
  const analysis::FileReport report = analysis::analyze_source(
      "void drop(char *p)\n"
      "{\n"
      "    free(p);\n"
      "    free(p);\n"
      "}\n");
  EXPECT_GE(count_of(report.diagnostics, CheckerId::kUseAfterFree), 1u);
}

TEST(Checkers, IntOverflowSizeFixture) {
  expect_planted_and_resolved(
      {CheckerId::kIntOverflowSize,
       "int *grow(int count, int width)\n"
       "{\n"
       "    return malloc(count * width);\n"
       "}\n",
       "int *grow(int count, int width)\n"
       "{\n"
       "    return calloc(count, width);\n"
       "}\n"});
}

TEST(Checkers, MissingNullGuardFixture) {
  expect_planted_and_resolved(
      {CheckerId::kMissingNullGuard,
       "int length(struct list *head)\n"
       "{\n"
       "    return head->len;\n"
       "}\n",
       "int length(struct list *head)\n"
       "{\n"
       "    if (!head)\n"
       "        return 0;\n"
       "    return head->len;\n"
       "}\n"});
}

TEST(Checkers, UninitUseFixture) {
  expect_planted_and_resolved(
      {CheckerId::kUninitUse,
       "int parse(int flag)\n"
       "{\n"
       "    int value;\n"
       "    if (flag) {\n"
       "        value = 1;\n"
       "    }\n"
       "    return value;\n"
       "}\n",
       "int parse(int flag)\n"
       "{\n"
       "    int value = 0;\n"
       "    if (flag) {\n"
       "        value = 1;\n"
       "    }\n"
       "    return value;\n"
       "}\n"});
}

TEST(Checkers, FormatStringFixture) {
  expect_planted_and_resolved(
      {CheckerId::kFormatString,
       "void warn(const char *msg)\n"
       "{\n"
       "    printf(msg);\n"
       "}\n",
       "void warn(const char *msg)\n"
       "{\n"
       "    printf(\"%s\", msg);\n"
       "}\n"});
}

TEST(Checkers, DiagnosticKeyIgnoresLineShifts) {
  // The same defect at a different line (e.g. after unrelated insertions
  // above) must map to the same key so the BEFORE/AFTER diff matches it.
  analysis::Diagnostic a;
  a.checker = CheckerId::kMissingNullGuard;
  a.function = "length";
  a.symbol = "head";
  a.line = 3;
  analysis::Diagnostic b = a;
  b.line = 17;
  EXPECT_EQ(a.key(), b.key());
}

TEST(Checkers, RegistryNamesAreStable) {
  ASSERT_EQ(analysis::checkers().size(), analysis::kCheckerCount);
  EXPECT_EQ(analysis::checker_name(CheckerId::kUncheckedAlloc),
            std::string_view("unchecked-alloc"));
  EXPECT_EQ(analysis::checker_name(CheckerId::kFormatString),
            std::string_view("format-string"));
}

// ------------------------------------------------- patch analysis --

const char* kGuardPatchText =
    "commit 1111111111111111111111111111111111111111\n"
    "\n"
    "    fix NULL dereference in fill()\n"
    "\n"
    "diff --git a/src/buf.c b/src/buf.c\n"
    "--- a/src/buf.c\n"
    "+++ b/src/buf.c\n"
    "@@ -10,6 +10,8 @@ static int fill(struct buf *b, size_t n)\n"
    " {\n"
    "     char *p;\n"
    "     p = malloc(n);\n"
    "+    if (!p)\n"
    "+        return -1;\n"
    "     p[0] = 0;\n"
    "     return 0;\n"
    " }\n";

TEST(PatchAnalysis, ReconstructsBothVersions) {
  const diff::Patch patch = diff::parse_patch(kGuardPatchText);
  ASSERT_EQ(patch.files.size(), 1u);
  const std::string before = analysis::reconstruct_fragment(patch.files[0], false);
  const std::string after = analysis::reconstruct_fragment(patch.files[0], true);
  EXPECT_EQ(before.find("if (!p)"), std::string::npos);
  EXPECT_NE(after.find("if (!p)"), std::string::npos);
  // Context lines appear in both; the hunk's section signature is
  // prepended so the fragment parses as a function.
  EXPECT_NE(before.find("p = malloc(n);"), std::string::npos);
  EXPECT_NE(after.find("p = malloc(n);"), std::string::npos);
  EXPECT_NE(before.find("static int fill"), std::string::npos);
}

TEST(PatchAnalysis, GuardPatchResolvesUncheckedAlloc) {
  const diff::Patch patch = diff::parse_patch(kGuardPatchText);
  const analysis::PatchAnalysis pa = analysis::analyze_patch(patch);
  const std::size_t c = static_cast<std::size_t>(CheckerId::kUncheckedAlloc);
  EXPECT_GE(pa.resolved_by_checker[c], 1u);
  EXPECT_EQ(pa.introduced_by_checker[c], 0u);
  EXPECT_GT(pa.net_blocks, 0);  // the guard adds control flow
}

TEST(PatchAnalysis, RendererMentionsResolvedDiagnostics) {
  const diff::Patch patch = diff::parse_patch(kGuardPatchText);
  const analysis::PatchAnalysis pa = analysis::analyze_patch(patch);
  const std::string report = analysis::render_report(pa, {});
  EXPECT_NE(report.find("unchecked-alloc"), std::string::npos);
  EXPECT_NE(report.find("resolved by this patch"), std::string::npos);
}

/// A patch that adds `n` straight-line units to one function, each an
/// allocation, a null test, a store and a free: every pointer stays in
/// the maybe-freed set to the end, so the dataflow sets grow with n.
std::string straight_line_probe(std::size_t n) {
  std::string added;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string p = "p" + std::to_string(i);
    added += "+\tchar *" + p + " = malloc(16);\n";
    added += "+\tif (" + p + " == NULL)\n";
    added += "+\t\treturn -1;\n";
    added += "+\t" + p + "[0] = 1;\n";
    added += "+\tfree(" + p + ");\n";
  }
  return "diff --git a/probe.c b/probe.c\n"
         "--- a/probe.c\n"
         "+++ b/probe.c\n"
         "@@ -1,4 +1," + std::to_string(4 + 5 * n) + " @@\n"
         " int probe(void)\n"
         " {\n" + added +
         " \treturn 0;\n"
         " }\n";
}

// The analysis output, pinned. Both modes of analyze_patch are hashed:
// every diagnostic of both sides (checker, function, line, symbol,
// message), the resolved and introduced lists, each side's block, edge
// and cyclomatic counts, the interprocedural stats with every summary
// signature and fan pair, and the patch-level deltas. The kSemantic and
// kInterproc rows join by bit pattern. The inputs are the NVD and wild
// patches of a small simulated world, the straight-line probe at n = 50,
// tests/data/null_guard.patch and tests/data/loop_flows.patch, whose
// loops carry each flow around a back edge (the world's patches seldom
// do). The constants were recorded with five separately solved forward
// passes plus a backward liveness pass; any diagnostic, count or row
// that moves changes them.
TEST(PatchAnalysis, OutputPinned) {
  std::uint64_t hash = util::fnv1a64("");
  std::size_t diagnostics_seen = 0;
  auto text = [&hash](std::string_view field) {
    hash = util::fnv1a64(std::to_string(field.size()) + ":", hash);
    hash = util::fnv1a64(field, hash);
  };
  auto number = [&text](std::uint64_t value) { text(std::to_string(value)); };
  auto diagnostics = [&](const std::vector<analysis::Diagnostic>& list) {
    number(list.size());
    diagnostics_seen += list.size();
    for (const analysis::Diagnostic& d : list) {
      number(static_cast<std::uint64_t>(d.checker));
      text(d.function);
      number(d.line);
      text(d.symbol);
      text(d.message);
    }
  };
  auto side = [&](const analysis::FileReport& report) {
    diagnostics(report.diagnostics);
    number(report.blocks);
    number(report.edges);
    number(report.cyclomatic);
    const analysis::InterprocStats& s = report.interproc;
    for (const std::size_t count :
         {s.functions, s.call_edges, s.call_sites, s.unresolved_calls, s.sccs,
          s.recursive_sccs, s.summary_iterations, s.flagged_summaries}) {
      number(count);
    }
    number(s.summary_signatures.size());
    for (const auto& [name, signature] : s.summary_signatures) {
      text(name);
      text(signature);
    }
    number(s.fan.size());
    for (const auto& [name, fan] : s.fan) {
      text(name);
      number(fan.first);
      number(fan.second);
    }
  };
  std::size_t patches = 0;
  auto add = [&](const diff::Patch& patch) {
    ++patches;
    for (const bool interproc : {false, true}) {
      analysis::AnalyzeOptions options;
      options.interproc = interproc;
      const analysis::PatchAnalysis pa = analysis::analyze_patch(patch, options);
      side(pa.before);
      side(pa.after);
      diagnostics(pa.resolved);
      diagnostics(pa.introduced);
      for (const std::size_t n : pa.resolved_by_checker) number(n);
      for (const std::size_t n : pa.introduced_by_checker) number(n);
      for (const long delta : {pa.net_blocks, pa.net_edges, pa.net_cyclomatic,
                               pa.net_call_edges}) {
        number(static_cast<std::uint64_t>(delta));
      }
      number(pa.summary_changes);
      number(pa.changed_fan_in);
      number(pa.changed_fan_out);
    }
    for (const feature::FeatureSpace space :
         {feature::FeatureSpace::kSemantic, feature::FeatureSpace::kInterproc}) {
      for (const double value : feature::extract(patch, space)) {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(value));
        std::memcpy(&bits, &value, sizeof(bits));
        number(bits);
      }
    }
  };

  corpus::WorldConfig config;
  config.repos = 4;
  config.nvd_security = 80;
  config.wild_pool = 400;
  config.seed = 11;
  const corpus::World world = corpus::build_world(config);
  for (const auto* records : {&world.nvd_security, &world.wild}) {
    for (const corpus::CommitRecord& r : *records) add(r.patch);
  }
  add(diff::parse_patch(straight_line_probe(50)));
  for (const char* name : {"null_guard.patch", "loop_flows.patch"}) {
    std::ifstream in(std::string(PATCHDB_TEST_DATA_DIR) + "/" + name,
                     std::ios::binary);
    ASSERT_TRUE(in) << "cannot open " << name;
    add(diff::parse_patch(std::string(std::istreambuf_iterator<char>(in), {})));
  }

  EXPECT_EQ(patches, 459u);
  EXPECT_EQ(diagnostics_seen, 630u);
  EXPECT_EQ(util::to_hex(hash), "b5c120b3a0ce2c8e");
}

TEST(PatchAnalysis, NonCodeFilesAreIgnored) {
  const analysis::PatchAnalysis pa = analysis::analyze_patch(diff::parse_patch(
      "commit 2222222222222222222222222222222222222222\n"
      "\n"
      "    docs\n"
      "\n"
      "diff --git a/README.md b/README.md\n"
      "--- a/README.md\n"
      "+++ b/README.md\n"
      "@@ -1,2 +1,3 @@\n"
      " # title\n"
      "+new line\n"
      " text\n"));
  EXPECT_TRUE(pa.before.diagnostics.empty());
  EXPECT_TRUE(pa.after.diagnostics.empty());
  EXPECT_TRUE(pa.resolved.empty());
  EXPECT_TRUE(pa.introduced.empty());
}

// -------------------------------------------- feature-space layout --

TEST(FeatureSpace, DimsAndNames) {
  EXPECT_EQ(feature::feature_dims(feature::FeatureSpace::kSyntactic),
            feature::kFeatureCount);
  EXPECT_EQ(feature::feature_dims(feature::FeatureSpace::kSemantic),
            feature::kExtendedFeatureCount);
  EXPECT_EQ(feature::kExtendedFeatureCount, 72u);

  const auto base = feature::feature_names();
  const auto extended = feature::feature_names(feature::FeatureSpace::kSemantic);
  ASSERT_EQ(base.size(), feature::kFeatureCount);
  ASSERT_EQ(extended.size(), feature::kExtendedFeatureCount);
  // The first 60 names are the unchanged Table I names.
  for (std::size_t i = 0; i < feature::kFeatureCount; ++i) {
    EXPECT_EQ(base[i], extended[i]) << "name " << i << " diverged";
  }
  // Pin the 12 semantic names (layout regression guard: any reorder of
  // the semantic dims must show up here).
  const char* kSemantic[] = {
      "sem_resolved_diags",    "sem_introduced_diags",
      "sem_net_unchecked_alloc", "sem_net_missing_bounds",
      "sem_net_use_after_free",  "sem_net_int_overflow",
      "sem_net_null_guard",      "sem_net_uninit_use",
      "sem_net_format_string",   "sem_cfg_net_blocks",
      "sem_cfg_net_edges",       "sem_cfg_net_cyclomatic",
  };
  for (std::size_t i = 0; i < feature::kSemanticFeatureCount; ++i) {
    EXPECT_EQ(extended[feature::kFeatureCount + i], std::string_view(kSemantic[i]));
  }
}

TEST(FeatureSpace, ExtendedVectorPreservesSyntacticPrefix) {
  const diff::Patch patch = diff::parse_patch(kGuardPatchText);
  const feature::FeatureVector base = feature::extract(patch);
  const std::vector<double> extended =
      feature::extract(patch, feature::FeatureSpace::kSemantic);
  for (std::size_t i = 0; i < feature::kFeatureCount; ++i) {
    EXPECT_EQ(base[i], extended[i]) << "dim " << i << " not bit-identical";
  }
  // The guard patch resolves one unchecked-alloc diagnostic.
  EXPECT_EQ(extended[60], 1.0);  // sem_resolved_diags
  EXPECT_EQ(extended[61], 0.0);  // sem_introduced_diags
  EXPECT_EQ(extended[62], 1.0);  // sem_net_unchecked_alloc
}

TEST(FeatureSpace, DefaultMatrixKeepsSeedLayout) {
  const diff::Patch patch = diff::parse_patch(kGuardPatchText);
  const std::vector<const diff::Patch*> patches = {&patch};
  const feature::FeatureMatrix syntactic = feature::extract_all(patches);
  EXPECT_EQ(syntactic.cols(), feature::kFeatureCount);
  const feature::FeatureMatrix semantic =
      feature::extract_all(patches, feature::FeatureSpace::kSemantic);
  EXPECT_EQ(semantic.cols(), feature::kExtendedFeatureCount);
  // Shared prefix agrees between the two spaces.
  for (std::size_t j = 0; j < feature::kFeatureCount; ++j) {
    EXPECT_EQ(syntactic[0][j], semantic[0][j]);
  }
}

}  // namespace
}  // namespace patchdb
