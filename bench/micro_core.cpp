// Micro-benchmarks (google-benchmark) for the algorithmic kernels:
// Levenshtein, the lexer, feature extraction, patch analysis,
// distance-matrix construction, nearest link search (greedy vs exact
// ablation), Myers diff, commit fabrication, patch synthesis, and GRU
// inference.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyze.h"
#include "bench_common.h"
#include "core/categorize.h"
#include "core/distance.h"
#include "core/nearest_link.h"
#include "core/streaming_link.h"
#include "corpus/repo.h"
#include "corpus/world.h"
#include "diff/myers.h"
#include "diff/parse.h"
#include "feature/features.h"
#include "lang/lexer.h"
#include "nn/encode.h"
#include "nn/gru.h"
#include "nn/vocab.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "synth/synthesize.h"
#include "util/flags.h"
#include "util/levenshtein.h"
#include "util/rng.h"

namespace {

using namespace patchdb;

std::string random_code_line(util::Rng& rng, std::size_t tokens) {
  std::string out;
  for (std::size_t i = 0; i < tokens; ++i) {
    out += "var" + std::to_string(rng.index(40)) + " = call" +
           std::to_string(rng.index(9)) + "(x) + " + std::to_string(rng.index(100)) +
           "; ";
  }
  return out;
}

void BM_Levenshtein(benchmark::State& state) {
  util::Rng rng(1);
  const std::string a = random_code_line(rng, static_cast<std::size_t>(state.range(0)));
  const std::string b = random_code_line(rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::levenshtein(a, b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_Levenshtein)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_Lexer(benchmark::State& state) {
  util::Rng rng(3);
  const std::string code = random_code_line(rng, 200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lang::lex(code));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(code.size()));
}
BENCHMARK(BM_Lexer);

corpus::CommitRecord sample_commit(std::uint64_t seed,
                                   corpus::PatchType type,
                                   bool snapshots = false) {
  util::Rng rng(seed);
  corpus::CommitOptions opt;
  opt.keep_snapshots = snapshots;
  return corpus::make_commit(rng, "bench", type, opt);
}

void BM_FeatureExtraction(benchmark::State& state) {
  const corpus::CommitRecord record =
      sample_commit(11, corpus::PatchType::kRedesign);
  for (auto _ : state) {
    benchmark::DoNotOptimize(feature::extract(record.patch));
  }
}
BENCHMARK(BM_FeatureExtraction);

/// A patch that adds `n` straight-line units to one function, each an
/// allocation, a null test, a store and a free (the same probe as
/// PatchAnalysis.OutputPinned): every pointer stays in the maybe-freed
/// set to the end, so the dataflow sets grow with n.
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

// analyze_patch on the straight-line probe: Args({n, interproc}). The
// dataflow fixpoint grows faster than n, so the arms show how far from
// linear the analysis is. Kept out of CI's filters: n = 1000 with
// --interproc takes seconds per iteration.
void BM_AnalyzeStraightLine(benchmark::State& state) {
  const diff::Patch patch = diff::parse_patch(
      straight_line_probe(static_cast<std::size_t>(state.range(0))));
  analysis::AnalyzeOptions options;
  options.interproc = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyze_patch(patch, options));
  }
}
BENCHMARK(BM_AnalyzeStraightLine)
    ->ArgsProduct({{100, 500, 1000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// One commit in either of the shapes build_world fabricates. Arg(0) is a
// wild commit: a type from the wild mix, bundled cleanups and euphemized
// messages at build_world's rates, no snapshots. Arg(1) is an NVD
// commit: a security type from the NVD mix, with snapshots.
void BM_MakeCommit(benchmark::State& state) {
  const bool nvd = state.range(0) == 1;
  const corpus::WorldConfig world;
  corpus::CommitOptions options = world.commit;
  if (nvd) {
    options.keep_snapshots = true;
  } else {
    options.bundle_cleanup_prob = 0.5;
    options.euphemize_prob = 0.61;
  }
  const corpus::TypeDistribution nvd_types = corpus::nvd_type_distribution();
  const corpus::TypeDistribution wild_types = corpus::wild_type_distribution();
  util::Rng rng(13);
  for (auto _ : state) {
    const corpus::PatchType type =
        nvd ? corpus::security_types()[rng.weighted(nvd_types)]
            : corpus::draw_patch_type(rng, wild_types, world.wild_security_rate);
    benchmark::DoNotOptimize(corpus::make_commit(rng, "bench", type, options));
  }
}
BENCHMARK(BM_MakeCommit)->Arg(0)->Arg(1);

void BM_MyersDiff(benchmark::State& state) {
  util::Rng rng(17);
  std::vector<std::string> a;
  std::vector<std::string> b;
  for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i) {
    a.push_back("line " + std::to_string(rng.index(50)));
    b.push_back(rng.chance(0.8) && i < a.size() ? a[i]
                                                : "edit " + std::to_string(i));
  }
  const std::vector<std::string_view> a_lines = diff::line_views(a);
  const std::vector<std::string_view> b_lines = diff::line_views(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff::diff_lines(a_lines, b_lines));
  }
}
BENCHMARK(BM_MyersDiff)->Arg(50)->Arg(200);

feature::FeatureMatrix random_features(std::size_t rows, std::uint64_t seed) {
  util::Rng rng(seed);
  feature::FeatureMatrix m(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < feature::kFeatureCount; ++j) {
      m[i][j] = rng.uniform(-10, 10);
    }
  }
  return m;
}

void BM_DistanceMatrix(benchmark::State& state) {
  const auto sec = random_features(static_cast<std::size_t>(state.range(0)), 1);
  const auto wild = random_features(static_cast<std::size_t>(state.range(1)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::distance_matrix(sec, wild));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * state.range(1));
}
BENCHMARK(BM_DistanceMatrix)->Args({100, 2000})->Args({400, 8000});

void BM_NearestLinkGreedy(benchmark::State& state) {
  const auto sec = random_features(static_cast<std::size_t>(state.range(0)), 3);
  const auto wild = random_features(static_cast<std::size_t>(state.range(1)), 4);
  const core::DistanceMatrix d = core::distance_matrix(sec, wild);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::nearest_link_search(d));
  }
}
BENCHMARK(BM_NearestLinkGreedy)->Args({100, 2000})->Args({400, 8000});

// Dense-vs-streaming ablation, end to end (features -> LinkResult). The
// dense arm pays the full M x N matrix (fill + greedy re-reads); the
// streaming arm runs the tiled norm-decomposed engine. Same inputs,
// bit-identical outputs; the {1000, 100000} shape is the acceptance
// scale recorded in bench/BENCH_nearest_link.json.
void BM_NearestLinkDenseEndToEnd(benchmark::State& state) {
  const auto sec = random_features(static_cast<std::size_t>(state.range(0)), 7);
  const auto wild = random_features(static_cast<std::size_t>(state.range(1)), 8);
  const std::vector<double> w = core::maxabs_weights(sec, wild);
  for (auto _ : state) {
    const core::DistanceMatrix d = core::distance_matrix(sec, wild, w);
    benchmark::DoNotOptimize(core::nearest_link_search(d));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * state.range(1));
}
BENCHMARK(BM_NearestLinkDenseEndToEnd)
    ->Args({100, 2000})
    ->Args({1000, 100000})
    ->Unit(benchmark::kMillisecond);

void BM_NearestLinkStreaming(benchmark::State& state) {
  const auto sec = random_features(static_cast<std::size_t>(state.range(0)), 7);
  const auto wild = random_features(static_cast<std::size_t>(state.range(1)), 8);
  const std::vector<double> w = core::maxabs_weights(sec, wild);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::streaming_nearest_link(sec, wild, w));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * state.range(1));
}
BENCHMARK(BM_NearestLinkStreaming)
    ->Args({100, 2000})
    ->Args({1000, 100000})
    ->Unit(benchmark::kMillisecond);

void BM_ExactAssignment(benchmark::State& state) {
  // The O(m^2 n) exact solver: ablation scale only.
  const auto sec = random_features(static_cast<std::size_t>(state.range(0)), 5);
  const auto wild = random_features(static_cast<std::size_t>(state.range(1)), 6);
  const core::DistanceMatrix d = core::distance_matrix(sec, wild);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::exact_assignment(d));
  }
}
BENCHMARK(BM_ExactAssignment)->Args({50, 500})->Args({100, 1000});

void BM_Categorize(benchmark::State& state) {
  const corpus::CommitRecord record =
      sample_commit(23, corpus::PatchType::kFuncCall);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::categorize(record.patch));
  }
}
BENCHMARK(BM_Categorize);

void BM_SynthesizePatch(benchmark::State& state) {
  const corpus::CommitRecord record =
      sample_commit(29, corpus::PatchType::kBoundCheck, /*snapshots=*/true);
  synth::SynthesisOptions opt;
  opt.max_per_patch = 4;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::synthesize(record, opt, ++seed));
  }
}
BENCHMARK(BM_SynthesizePatch);

// Reduced-scale dense-vs-streaming probe for the CI gate: one dense run
// and one streaming run over the same 250 x 25000 inputs, with the
// verdict recorded as nearest_link.bench.* gauges in the metrics
// artifact. bench_diff then enforces machine-independent rules
// (identical = 1, a speedup floor, pool.threads >= 2) without paying
// the full 1000 x 100000 ablation scale on every push.
bool run_link_check() {
  constexpr std::size_t m = 250;
  constexpr std::size_t n = 25000;
  const auto sec = random_features(m, 7);
  const auto wild = random_features(n, 8);
  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const auto t0 = std::chrono::steady_clock::now();
  const core::DistanceMatrix d = core::distance_matrix(sec, wild, w);
  const core::LinkResult dense = core::nearest_link_search(d);
  const auto t1 = std::chrono::steady_clock::now();
  core::StreamingLinkStats stats;
  const core::LinkResult streamed =
      core::streaming_nearest_link(sec, wild, w, &stats);
  const auto t2 = std::chrono::steady_clock::now();
  const double dense_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double stream_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  const bool identical = dense.candidate == streamed.candidate &&
                         dense.total_distance == streamed.total_distance;
  const double speedup = stream_ms > 0.0 ? dense_ms / stream_ms : 0.0;
  obs::gauge_set("nearest_link.bench.dense_ms", dense_ms);
  obs::gauge_set("nearest_link.bench.streaming_ms", stream_ms);
  obs::gauge_set("nearest_link.bench.speedup", speedup);
  obs::gauge_set("nearest_link.bench.identical", identical ? 1.0 : 0.0);
  obs::gauge_set("nearest_link.bench.threads",
                 static_cast<double>(stats.threads));
  std::printf(
      "link-check %zux%zu: dense %.1f ms, streaming %.1f ms (%.2fx, "
      "%zu threads), results %s\n",
      m, n, dense_ms, stream_ms, speedup, stats.threads,
      identical ? "identical" : "DIVERGED");
  return identical;
}

// Pipeline-shaped panel of the --link-check gate: Table I features of a
// small simulated world (300 NVD entries, which yield 221 seeds, against
// a 20K wild pool). Unlike
// the uniform panel, its commits repeat feature vectors, so the engine
// links groups of identical rows — the path real builds take. Records
// nearest_link.bench.pipeline_identical and the pool's distinct share.
bool run_pipeline_link_check() {
  corpus::WorldConfig config;
  config.nvd_security = 300;
  config.wild_pool = 20000;
  const corpus::World world = corpus::build_world(config);
  const auto features = [](const std::vector<corpus::CommitRecord>& records) {
    std::vector<const diff::Patch*> patches;
    for (const corpus::CommitRecord& r : records) patches.push_back(&r.patch);
    return feature::extract_all(patches);
  };
  const feature::FeatureMatrix sec = features(world.nvd_security);
  const feature::FeatureMatrix wild = features(world.wild);
  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const auto t0 = std::chrono::steady_clock::now();
  const core::LinkResult dense =
      core::nearest_link_search(core::distance_matrix(sec, wild, w));
  const auto t1 = std::chrono::steady_clock::now();
  core::StreamingLinkStats stats;
  const core::LinkResult streamed =
      core::streaming_nearest_link(sec, wild, w, &stats);
  const auto t2 = std::chrono::steady_clock::now();
  const bool identical = dense.candidate == streamed.candidate &&
                         dense.total_distance == streamed.total_distance;
  const double share = static_cast<double>(stats.distinct_cols) /
                       static_cast<double>(wild.rows());
  obs::gauge_set("nearest_link.bench.pipeline_identical", identical ? 1.0 : 0.0);
  obs::gauge_set("nearest_link.bench.distinct_col_share", share);
  std::printf(
      "link-check pipeline %zux%zu: dense %.1f ms, streaming %.1f ms, "
      "%zu distinct seeds, %zu distinct pool rows (%.1f%%), results %s\n",
      sec.rows(), wild.rows(),
      std::chrono::duration<double, std::milli>(t1 - t0).count(),
      std::chrono::duration<double, std::milli>(t2 - t1).count(),
      stats.distinct_rows, stats.distinct_cols, 100.0 * share,
      identical ? "identical" : "DIVERGED");
  return identical;
}

void BM_GruInference(benchmark::State& state) {
  nn::SequenceDataset train;
  util::Rng rng(31);
  for (int i = 0; i < 64; ++i) {
    std::vector<std::int32_t> seq;
    for (int t = 0; t < 64; ++t) {
      seq.push_back(static_cast<std::int32_t>(2 + rng.index(100)));
    }
    train.sequences.push_back(std::move(seq));
    train.labels.push_back(i % 2);
  }
  nn::GruOptions opt;
  opt.epochs = 1;
  nn::GruClassifier gru(opt);
  gru.fit(train, 102, 1);
  const std::vector<std::int32_t>& probe = train.sequences[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(gru.predict_score(probe));
  }
}
BENCHMARK(BM_GruInference);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): benchmark::Initialize takes
// its own --benchmark_* flags out of argv, and util::Flags parses the
// rest — the obs flags every binary takes, and --link-check, which runs
// the dense-vs-streaming probe and the pipeline panel after the
// benchmarks. The whole run executes under an obs::ObsSession, which
// samples resources while an artifact is requested, and the
// counters/spans the kernels record (distance.tiles, nearest_link.*)
// land in machine-readable artifacts — this is what the CI bench-smoke
// job uploads.
int main(int argc, char** argv) {
  using namespace patchdb;
  benchmark::Initialize(&argc, argv);
  util::Flags flags(argc, argv, 1, "micro_core");
  if (!flags.accept(obs::kArtifactValueFlags, {"--progress", "--link-check"}, 0)) {
    return 2;
  }
  bool link_ok = true;
  {
    obs::ObsSession session("micro_core", obs::artifact_request(flags));
    benchmark::RunSpecifiedBenchmarks();
    if (flags.has("--link-check")) {
      link_ok = run_link_check();
      if (!run_pipeline_link_check()) link_ok = false;
    }
    session.write_artifacts(session.report());
  }
  benchmark::Shutdown();
  if (!link_ok) {
    std::fprintf(stderr,
                 "micro_core: link check FAILED (a streaming result "
                 "diverged from dense)\n");
    return 1;
  }
  return 0;
}
