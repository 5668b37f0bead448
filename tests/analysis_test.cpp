// Tests for the semantic analysis subsystem: CFG construction, the
// dataflow passes, the checker registry (one planted-defect fixture per
// checker, fixed on the AFTER side), the BEFORE/AFTER diagnostic diff,
// and the extended feature-space layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "analysis/cfg.h"
#include "analysis/checkers.h"
#include "analysis/dataflow.h"
#include "analysis/report.h"
#include "diff/parse.h"
#include "feature/features.h"

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
