// Micro-benchmarks (google-benchmark) for the crash-safe store: sealed
// export, verified load, checkpoint write/read, and a full fsck walk.
// These are the costs a production build pays per round (checkpoint) and
// once at the end (export); the load/fsck arms bound what a consumer or
// an integrity sweep pays per dataset.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/patchdb.h"
#include "obs/obs.h"
#include "store/checkpoint.h"
#include "store/export.h"
#include "store/fsck.h"
#include "store/io.h"
#include "util/flags.h"

namespace {

using namespace patchdb;
namespace fs = std::filesystem;

const core::PatchDb& bench_db() {
  static const core::PatchDb db = [] {
    core::BuildOptions options;
    options.world.repos = 6;
    options.world.nvd_security = 60;
    options.world.wild_pool = 1200;
    options.world.seed = 1717;
    options.augment.max_rounds = 2;
    options.synthesis.max_per_patch = 2;
    return core::build_patchdb(options);
  }();
  return db;
}

fs::path bench_dir(const char* name) {
  return fs::temp_directory_path() / "patchdb_micro_store" / name;
}

void BM_ExportPatchDb(benchmark::State& state) {
  const core::PatchDb& db = bench_db();
  const fs::path root = bench_dir("export");
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const store::ExportStats stats = store::export_patchdb(db, root);
    benchmark::DoNotOptimize(stats.patches_written);
  }
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(root)) {
    if (e.is_regular_file()) bytes += static_cast<std::int64_t>(e.file_size());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
  fs::remove_all(root);
}
BENCHMARK(BM_ExportPatchDb)->Unit(benchmark::kMillisecond);

void BM_LoadPatchDb(benchmark::State& state) {
  const fs::path root = bench_dir("load");
  store::export_patchdb(bench_db(), root);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store::load_patchdb(root).nvd_security.size());
  }
  fs::remove_all(root);
}
BENCHMARK(BM_LoadPatchDb)->Unit(benchmark::kMillisecond);

/// `commits` verdicts, one in four a wild find (build-deep's share is
/// 27%).
store::Verdicts sample_verdicts(std::size_t commits) {
  store::Verdicts verdicts;
  for (std::size_t i = 0; i < commits; ++i) {
    const std::string id = "c" + std::to_string(i);
    std::string hex;
    for (char c : id) hex += "0123456789abcdef"[static_cast<unsigned char>(c) % 16];
    (i % 4 == 0 ? verdicts.security : verdicts.nonsecurity)
        .push_back(hex + std::string(12, 'a'));
  }
  return verdicts;
}

void BM_CheckpointWrite(benchmark::State& state) {
  const store::Verdicts verdicts =
      sample_verdicts(static_cast<std::size_t>(state.range(0)));
  const fs::path dir = bench_dir("ckpt_write");
  for (auto _ : state) {
    store::write_checkpoint(dir, verdicts, 0xfeedu);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  fs::remove_all(dir);
}
BENCHMARK(BM_CheckpointWrite)->Arg(1000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_CheckpointRead(benchmark::State& state) {
  const fs::path dir = bench_dir("ckpt_read");
  store::write_checkpoint(
      dir, sample_verdicts(static_cast<std::size_t>(state.range(0))), 0xfeedu);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store::read_checkpoint(dir, store::kAnyFingerprint).nonsecurity.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  fs::remove_all(dir);
}
BENCHMARK(BM_CheckpointRead)->Arg(1000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_FsckDataset(benchmark::State& state) {
  const fs::path root = bench_dir("fsck");
  store::export_patchdb(bench_db(), root);
  for (auto _ : state) {
    const store::FsckReport report = store::fsck_dataset(root);
    benchmark::DoNotOptimize(report.errors.size());
  }
  fs::remove_all(root);
}
BENCHMARK(BM_FsckDataset)->Unit(benchmark::kMillisecond);

}  // namespace

// benchmark::Initialize takes its own --benchmark_* flags out of argv,
// and util::Flags parses the rest: the obs flags every binary takes.
// The store.* counters and spans land in the artifacts of the same
// obs::ObsSession as the tools and the other benches.
int main(int argc, char** argv) {
  using namespace patchdb;
  benchmark::Initialize(&argc, argv);
  util::Flags flags(argc, argv, 1, "micro_store");
  if (!flags.accept(obs::kArtifactValueFlags, {"--progress"}, 0)) return 2;
  bool written = false;
  {
    obs::ObsSession session("micro_store", obs::artifact_request(flags));
    benchmark::RunSpecifiedBenchmarks();
    written = session.write_artifacts(session.report());
  }
  benchmark::Shutdown();
  return written ? 0 : 1;
}
