// Tests for the interprocedural layer: call-graph construction and SCC
// condensation, the bottom-up summary fixpoint (including recursion and
// degenerate inputs — construction must stay total), the golden
// cross-function defect shapes each upgraded checker catches that the
// intraprocedural pass misses, and the bit-identical-defaults contract
// of the kInterproc feature tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "analysis/callgraph.h"
#include "analysis/cfg.h"
#include "analysis/checkers.h"
#include "analysis/report.h"
#include "analysis/summary.h"
#include "core/categorize.h"
#include "diff/parse.h"
#include "feature/features.h"

namespace patchdb {
namespace {

using analysis::CheckerId;

std::vector<analysis::Diagnostic> diagnostics_of(const std::string& source,
                                                 bool interproc) {
  analysis::AnalyzeOptions options;
  options.interproc = interproc;
  return analysis::analyze_source(source, options).diagnostics;
}

std::vector<analysis::FunctionFacts> facts_of(const std::vector<analysis::Cfg>& cfgs) {
  std::vector<analysis::FunctionFacts> facts;
  for (const analysis::Cfg& cfg : cfgs) facts.push_back(analysis::facts_for(cfg));
  return facts;
}

analysis::CallGraph graph_of(const std::vector<analysis::Cfg>& cfgs) {
  return analysis::build_call_graph(cfgs, facts_of(cfgs));
}

analysis::SummaryTable summaries_of(const std::vector<analysis::Cfg>& cfgs,
                                    const analysis::CallGraph& graph) {
  return analysis::compute_summaries(cfgs, facts_of(cfgs), graph);
}

analysis::SummaryTable summaries_of(const std::vector<analysis::Cfg>& cfgs) {
  return summaries_of(cfgs, graph_of(cfgs));
}

bool has_diagnostic(const std::vector<analysis::Diagnostic>& diagnostics,
                    CheckerId checker, std::string_view symbol) {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [&](const analysis::Diagnostic& d) {
                       return d.checker == checker && d.symbol == symbol;
                     });
}

// ------------------------------------------------------ call graph --

TEST(CallGraph, ResolvesDirectCallsAndCountsUnresolved) {
  const auto cfgs = analysis::build_cfgs(
      "static int helper(int x)\n"
      "{\n"
      "    return x + 1;\n"
      "}\n"
      "static int top(int x)\n"
      "{\n"
      "    int y = helper(x);\n"
      "    return external_thing(y);\n"
      "}\n");
  const analysis::CallGraph graph = graph_of(cfgs);
  ASSERT_EQ(graph.nodes.size(), cfgs.size());
  const std::size_t helper = graph.index_of("helper");
  const std::size_t top = graph.index_of("top");
  ASSERT_NE(helper, analysis::CallGraph::npos);
  ASSERT_NE(top, analysis::CallGraph::npos);
  EXPECT_EQ(graph.nodes[top].fan_out, 1u);
  EXPECT_EQ(graph.nodes[helper].fan_in, 1u);
  EXPECT_GE(graph.unresolved_calls, 1u);  // external_thing
  EXPECT_EQ(graph.index_of("external_thing"), analysis::CallGraph::npos);
}

TEST(CallGraph, SccOrderIsBottomUp) {
  // a -> b -> c: the summary pass needs callees emitted before callers.
  const auto cfgs = analysis::build_cfgs(
      "static int c(int x) { return x; }\n"
      "static int b(int x) { return c(x); }\n"
      "static int a(int x) { return b(x); }\n");
  const analysis::CallGraph graph = graph_of(cfgs);
  const std::size_t ia = graph.index_of("a");
  const std::size_t ib = graph.index_of("b");
  const std::size_t ic = graph.index_of("c");
  auto position = [&](std::size_t v) {
    for (std::size_t s = 0; s < graph.sccs.size(); ++s) {
      if (std::find(graph.sccs[s].begin(), graph.sccs[s].end(), v) !=
          graph.sccs[s].end()) {
        return s;
      }
    }
    return graph.sccs.size();
  };
  EXPECT_LT(position(ic), position(ib));
  EXPECT_LT(position(ib), position(ia));
  EXPECT_EQ(graph.recursive_scc_count(), 0u);
}

TEST(CallGraph, MutualRecursionCondensesToOneScc) {
  const auto cfgs = analysis::build_cfgs(
      "static int even(int n) { if (n == 0) return 1; return odd(n - 1); }\n"
      "static int odd(int n) { if (n == 0) return 0; return even(n - 1); }\n");
  const analysis::CallGraph graph = graph_of(cfgs);
  EXPECT_EQ(graph.recursive_scc_count(), 1u);
  const std::size_t ieven = graph.index_of("even");
  ASSERT_NE(ieven, analysis::CallGraph::npos);
  const std::size_t scc = graph.nodes[ieven].scc;
  EXPECT_EQ(graph.nodes[graph.index_of("odd")].scc, scc);
  EXPECT_EQ(graph.sccs[scc].size(), 2u);
}

TEST(CallGraph, EmptySourceYieldsEmptyGraph) {
  const analysis::CallGraph graph =
      graph_of(analysis::build_cfgs(""));
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_TRUE(graph.sccs.empty());
}

// ------------------------------------------------- summary fixpoint --

TEST(Summaries, DirectEffectsAreRecorded) {
  const auto cfgs = analysis::build_cfgs(
      "static void sink(char *p)\n"
      "{\n"
      "    *p = 0;\n"
      "}\n"
      "static void drop(char *p)\n"
      "{\n"
      "    free(p);\n"
      "}\n"
      "static char *mk(int n)\n"
      "{\n"
      "    return malloc(n);\n"
      "}\n");
  const analysis::SummaryTable table = summaries_of(cfgs);
  const analysis::FunctionSummary* sink = table.find("sink");
  ASSERT_NE(sink, nullptr);
  ASSERT_EQ(sink->param_flags.size(), 1u);
  EXPECT_TRUE(sink->param_flags[0].deref_unguarded);
  const analysis::FunctionSummary* drop = table.find("drop");
  ASSERT_NE(drop, nullptr);
  EXPECT_TRUE(drop->param_flags[0].freed);
  const analysis::FunctionSummary* mk = table.find("mk");
  ASSERT_NE(mk, nullptr);
  EXPECT_TRUE(mk->returns_fresh_alloc);
  EXPECT_TRUE(mk->param_flags[0].alloc_size_unguarded);
  EXPECT_EQ(table.flagged_count(), 3u);
}

TEST(Summaries, GuardedDerefIsNotFlagged) {
  const auto cfgs = analysis::build_cfgs(
      "static void careful(char *p)\n"
      "{\n"
      "    if (!p)\n"
      "        return;\n"
      "    *p = 0;\n"
      "}\n");
  const analysis::SummaryTable table = summaries_of(cfgs);
  const analysis::FunctionSummary* careful = table.find("careful");
  ASSERT_NE(careful, nullptr);
  EXPECT_FALSE(careful->param_flags[0].deref_unguarded);
  EXPECT_TRUE(careful->signature().empty());
}

TEST(Summaries, EffectsPropagateThroughWrapperChains) {
  // sink derefs; mid forwards to sink; top forwards to mid. One bottom-up
  // pass over the condensation must mark all three.
  const auto cfgs = analysis::build_cfgs(
      "static void sink(char *p) { *p = 0; }\n"
      "static void mid(char *q) { sink(q); }\n"
      "static void top(char *r) { mid(r); }\n");
  const analysis::SummaryTable table = summaries_of(cfgs);
  for (const char* name : {"sink", "mid", "top"}) {
    const analysis::FunctionSummary* s = table.find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_TRUE(s->param_flags[0].deref_unguarded) << name;
  }
}

TEST(Summaries, SelfRecursionReachesFixpoint) {
  const auto cfgs = analysis::build_cfgs(
      "static int down(char *p, int n)\n"
      "{\n"
      "    if (n > 0)\n"
      "        return down(p, n - 1);\n"
      "    return *p;\n"
      "}\n");
  const analysis::CallGraph graph = graph_of(cfgs);
  EXPECT_EQ(graph.recursive_scc_count(), 1u);
  const analysis::SummaryTable table = summaries_of(cfgs, graph);
  const analysis::FunctionSummary* down = table.find("down");
  ASSERT_NE(down, nullptr);
  EXPECT_TRUE(down->param_flags[0].deref_unguarded);
  EXPECT_GE(table.iterations, 2u);  // the recursive SCC re-sweeps once
}

TEST(Summaries, MutualRecursionPropagatesAcrossTheCycle) {
  // Only walk_b dereferences; walk_a must inherit the flag through the
  // two-function cycle, which needs iteration inside the SCC.
  const auto cfgs = analysis::build_cfgs(
      "static int walk_a(char *p, int n)\n"
      "{\n"
      "    if (n == 0)\n"
      "        return 0;\n"
      "    return walk_b(p, n - 1);\n"
      "}\n"
      "static int walk_b(char *p, int n)\n"
      "{\n"
      "    if (n == 0)\n"
      "        return *p;\n"
      "    return walk_a(p, n - 1);\n"
      "}\n");
  const analysis::SummaryTable table = summaries_of(cfgs);
  const analysis::FunctionSummary* a = table.find("walk_a");
  const analysis::FunctionSummary* b = table.find("walk_b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->param_flags[0].deref_unguarded);
  EXPECT_TRUE(a->param_flags[0].deref_unguarded);
}

TEST(Summaries, DegenerateInputsStayTotal) {
  // Truncated fragment, unknown callees, stray tokens, duplicate
  // definitions: construction never errors, matching the CFG contract.
  for (const char* source : {
           "",
           "static int trunc(char *p) { if (p",
           "}} ;; @@ not code at all\n",
           "static void a(char *p) { external_helper(p); }\n",
           "static int twice(int x) { return x; }\n"
           "static int twice(int x) { return x + 1; }\n",
       }) {
    const auto cfgs = analysis::build_cfgs(source);
    const analysis::CallGraph graph = graph_of(cfgs);
    const analysis::SummaryTable table = summaries_of(cfgs, graph);
    EXPECT_LE(table.by_function.size(), cfgs.size() + 1);
    analysis::AnalyzeOptions options;
    options.interproc = true;
    (void)analysis::analyze_source(source, options);  // must not throw
  }
}

// -------------------------------- golden cross-function defect shapes --

// Shape 1 (missing-null-guard): the caller hands its never-tested
// pointer parameter to a callee that dereferences unguarded.
TEST(InterprocCheckers, CalleeDerefFlagsCallerParameter) {
  const std::string source =
      "static void deref_it(char *p)\n"
      "{\n"
      "    *p = 0;\n"
      "}\n"
      "static void outer(char *q)\n"
      "{\n"
      "    deref_it(q);\n"
      "}\n";
  const auto intra = diagnostics_of(source, false);
  const auto inter = diagnostics_of(source, true);
  EXPECT_FALSE(has_diagnostic(intra, CheckerId::kMissingNullGuard, "q"));
  EXPECT_TRUE(has_diagnostic(inter, CheckerId::kMissingNullGuard, "q"));
}

TEST(InterprocCheckers, GuardBeforeCallSuppressesTheFinding) {
  const std::string source =
      "static void deref_it(char *p)\n"
      "{\n"
      "    *p = 0;\n"
      "}\n"
      "static void outer(char *q)\n"
      "{\n"
      "    if (!q)\n"
      "        return;\n"
      "    deref_it(q);\n"
      "}\n";
  EXPECT_FALSE(has_diagnostic(diagnostics_of(source, true),
                              CheckerId::kMissingNullGuard, "q"));
}

// Shape 2 (use-after-free): a wrapper performs the free; the caller
// keeps using the pointer afterwards.
TEST(InterprocCheckers, WrapperFreeFeedsUseAfterFree) {
  const std::string source =
      "static void release(char *c)\n"
      "{\n"
      "    free(c);\n"
      "}\n"
      "static int handle(char *c)\n"
      "{\n"
      "    release(c);\n"
      "    return *c;\n"
      "}\n";
  const auto intra = diagnostics_of(source, false);
  const auto inter = diagnostics_of(source, true);
  EXPECT_FALSE(has_diagnostic(intra, CheckerId::kUseAfterFree, "c"));
  EXPECT_TRUE(has_diagnostic(inter, CheckerId::kUseAfterFree, "c"));
}

TEST(InterprocCheckers, WrapperDoubleFreeIsReported) {
  const std::string source =
      "static void release(char *c)\n"
      "{\n"
      "    free(c);\n"
      "}\n"
      "static void handle(char *c)\n"
      "{\n"
      "    release(c);\n"
      "    free(c);\n"
      "}\n";
  EXPECT_TRUE(has_diagnostic(diagnostics_of(source, true),
                             CheckerId::kUseAfterFree, "c"));
}

// Shape 3 (int-overflow-size): unguarded arithmetic flowing into an
// allocation *wrapper*'s size parameter.
TEST(InterprocCheckers, AllocationWrapperSeesOverflowArithmetic) {
  const std::string source =
      "static char *wrap_alloc(int n)\n"
      "{\n"
      "    return malloc(n);\n"
      "}\n"
      "static char *mk(int a, int b)\n"
      "{\n"
      "    return wrap_alloc(a * b);\n"
      "}\n";
  const auto intra = diagnostics_of(source, false);
  const auto inter = diagnostics_of(source, true);
  EXPECT_FALSE(has_diagnostic(intra, CheckerId::kIntOverflowSize, "a"));
  EXPECT_TRUE(has_diagnostic(inter, CheckerId::kIntOverflowSize, "a"));
}

// Bonus shape (unchecked-alloc): the allocation came from a wrapper, so
// the intraprocedural pass never marks the result possibly-null.
TEST(InterprocCheckers, FreshAllocWrapperFeedsUncheckedAlloc) {
  const std::string source =
      "static char *wrap_alloc(int n)\n"
      "{\n"
      "    return malloc(n);\n"
      "}\n"
      "static void user(int n)\n"
      "{\n"
      "    char *p = wrap_alloc(n);\n"
      "    *p = 0;\n"
      "}\n";
  const auto intra = diagnostics_of(source, false);
  const auto inter = diagnostics_of(source, true);
  EXPECT_FALSE(has_diagnostic(intra, CheckerId::kUncheckedAlloc, "p"));
  EXPECT_TRUE(has_diagnostic(inter, CheckerId::kUncheckedAlloc, "p"));
}

// ----------------------------------------- patch-level wiring + report --

const char* kWrapperFreePatch =
    "commit 3333333333333333333333333333333333333333\n"
    "\n"
    "    fix use after free via release wrapper\n"
    "\n"
    "diff --git a/driver.c b/driver.c\n"
    "--- a/driver.c\n"
    "+++ b/driver.c\n"
    "@@ -1,4 +1,4 @@ static void release_ctx(char *c)\n"
    " static void release_ctx(char *c)\n"
    " {\n"
    "     free(c);\n"
    " }\n"
    "@@ -10,6 +10,5 @@ static int handle(char *c, int n)\n"
    " static int handle(char *c, int n)\n"
    " {\n"
    "     release_ctx(c);\n"
    "-    use(*c);\n"
    "     return 0;\n"
    " }\n";

TEST(InterprocPatch, WrapperFreeFixResolvesOnlyUnderInterproc) {
  const diff::Patch patch = diff::parse_patch(kWrapperFreePatch);
  const std::size_t uaf = static_cast<std::size_t>(CheckerId::kUseAfterFree);
  const analysis::PatchAnalysis intra = analysis::analyze_patch(patch);
  EXPECT_EQ(intra.resolved_by_checker[uaf], 0u);
  analysis::AnalyzeOptions options;
  options.interproc = true;
  const analysis::PatchAnalysis inter = analysis::analyze_patch(patch, options);
  EXPECT_GE(inter.resolved_by_checker[uaf], 1u);
  EXPECT_TRUE(inter.interproc);
  EXPECT_GE(inter.summary_changes, 1u);
  EXPECT_GE(inter.changed_fan_in + inter.changed_fan_out, 1u);
  EXPECT_GE(inter.before.interproc.call_edges, 1u);
}

TEST(InterprocPatch, ReportRendersCallGraphSection) {
  analysis::AnalyzeOptions options;
  options.interproc = true;
  const analysis::PatchAnalysis pa =
      analysis::analyze_patch(diff::parse_patch(kWrapperFreePatch), options);
  const std::string report = analysis::render_report(pa, {});
  EXPECT_NE(report.find("call graph:"), std::string::npos);
  EXPECT_NE(report.find("summaries:"), std::string::npos);
  EXPECT_NE(report.find("used after free"), std::string::npos);
}

TEST(InterprocPatch, DefaultAnalysisIsUnchangedByTheNewLayer) {
  const diff::Patch patch = diff::parse_patch(kWrapperFreePatch);
  const analysis::PatchAnalysis plain = analysis::analyze_patch(patch);
  EXPECT_FALSE(plain.interproc);
  EXPECT_EQ(plain.net_call_edges, 0);
  EXPECT_EQ(plain.before.interproc.call_edges, 0u);
  // The default overload and explicit default options agree exactly.
  const analysis::PatchAnalysis defaulted =
      analysis::analyze_patch(patch, analysis::AnalyzeOptions{});
  EXPECT_EQ(plain.resolved_by_checker, defaulted.resolved_by_checker);
  EXPECT_EQ(plain.introduced_by_checker, defaulted.introduced_by_checker);
  EXPECT_EQ(plain.before.diagnostics.size(), defaulted.before.diagnostics.size());
}

// ------------------------------------------------ feature-tier layout --

TEST(InterprocFeatures, DimsAndNamesLineUp) {
  EXPECT_EQ(feature::feature_dims(feature::FeatureSpace::kInterproc), 80u);
  const auto names = feature::feature_names(feature::FeatureSpace::kInterproc);
  ASSERT_EQ(names.size(), feature::kInterprocExtendedFeatureCount);
  EXPECT_EQ(names[72], "ip_resolved_diags");
  EXPECT_EQ(names[79], "ip_summary_changes");
  // The narrower spaces are exact prefixes.
  const auto semantic = feature::feature_names(feature::FeatureSpace::kSemantic);
  ASSERT_EQ(semantic.size(), feature::kExtendedFeatureCount);
  for (std::size_t i = 0; i < semantic.size(); ++i) {
    EXPECT_EQ(semantic[i], names[i]);
  }
}

TEST(InterprocFeatures, DefaultSpacesStayBitIdentical) {
  const diff::Patch patch = diff::parse_patch(kWrapperFreePatch);
  const feature::FeatureVector syntactic = feature::extract(patch);
  const std::vector<double> semantic =
      feature::extract(patch, feature::FeatureSpace::kSemantic);
  const std::vector<double> interproc =
      feature::extract(patch, feature::FeatureSpace::kInterproc);
  for (std::size_t i = 0; i < feature::kFeatureCount; ++i) {
    EXPECT_EQ(syntactic[i], semantic[i]) << i;
  }
  for (std::size_t i = 0; i < feature::kExtendedFeatureCount; ++i) {
    EXPECT_EQ(semantic[i], interproc[i]) << i;
  }
}

TEST(InterprocFeatures, InterprocDimsSeeTheCrossFunctionFix) {
  const std::vector<double> v = feature::extract(
      diff::parse_patch(kWrapperFreePatch), feature::FeatureSpace::kInterproc);
  // The wrapper-free fix resolves strictly more under interproc than
  // under the intraprocedural pass (dim 74 is the resolved delta).
  EXPECT_GT(v[74], 0.0);
  EXPECT_GT(v[79], 0.0);  // the wrapper's caller changed summary
}

TEST(InterprocFeatures, MatrixWidthMatchesSpace) {
  const diff::Patch patch = diff::parse_patch(kWrapperFreePatch);
  const std::vector<const diff::Patch*> patches = {&patch};
  const feature::FeatureMatrix m =
      feature::extract_all(patches, feature::FeatureSpace::kInterproc);
  ASSERT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), feature::kInterprocExtendedFeatureCount);
}

TEST(InterprocCategorize, DefaultOptionsMatchTheOldBehaviour) {
  // Handed a default (intraprocedural) analysis, categorize breaks ties
  // exactly as the overload that analyzes the patch itself.
  const diff::Patch patch = diff::parse_patch(kWrapperFreePatch);
  EXPECT_EQ(core::categorize(patch),
            core::categorize(patch, analysis::analyze_patch(patch)));
}

}  // namespace
}  // namespace patchdb
