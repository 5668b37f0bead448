// patchdb — command-line front end for the PatchDB library.
//
//   patchdb build --out DIR [--nvd N] [--wild N] [--rounds R] [--seed S]
//           [--synth N] [--threads N] [--checkpoint-dir D] [--resume]
//           [--metrics-out FILE] [--trace-out FILE] [--progress]
//       Build a simulated PatchDB (NVD crawl -> nearest-link augmentation
//       -> synthesis) and export it to DIR in the release layout.
//       --synth N caps the synthetic patches derived from one natural
//       patch (default 4, 0 = no cap). With --checkpoint-dir the
//       experts' verdicts are persisted after every round; --resume
//       continues an interrupted build from the last checkpoint there,
//       asking for no recorded verdict again, and produces a
//       bit-identical export (without --checkpoint-dir it exits 2). --threads N sizes the worker pool the
//       nearest-link engine shards across (wins over PATCHDB_THREADS;
//       default: hardware concurrency); the export is bit-identical for
//       every value. --metrics-out writes the JSON metrics artifact and
//       --trace-out a Chrome trace of the run (load in Perfetto);
//       --progress prints a heartbeat line from the long loops every
//       second.
//   patchdb stats DIR
//       Summarize an exported dataset: component sizes, Table V type
//       distribution, categorizer agreement.
//   patchdb fsck DIR
//       Verify an exported dataset and/or checkpoint directory: manifest
//       and features checksums, strict row parsing, each pack's footer
//       and table, per-patch content checksums, orphaned pack entries.
//       Exit 1 when anything is corrupted.
//   patchdb features FILE.patch [--all] [--semantic] [--interproc]
//       Print the Table I feature vector of a patch file (--semantic
//       appends the 12 CFG/checker dimensions, --interproc a further 8
//       call-graph/summary dimensions).
//   patchdb analyze FILE.patch [--unchanged] [--interproc]
//       Run the CFG security checkers on the BEFORE and AFTER versions
//       of each patched file and report resolved/introduced diagnostics.
//       --interproc layers the call graph and function summaries on top,
//       so checkers see through calls between patched functions.
//   patchdb categorize FILE.patch
//       Print the Table V code-change category of a patch file.
//   patchdb tokens FILE.patch
//       Print the RNN token stream of a patch file.
//   patchdb variants "CONDITION"
//       Print the eight Fig. 5 control-flow rewrites of `if (CONDITION)`.
//   patchdb presence FILE.patch TARGET_SOURCE_FILE
//       Patch presence test (Sec. V-A.1): is the fix already applied in
//       the target file? Prints patched/vulnerable/partial/unknown.
//   patchdb metrics [--nvd N] [--wild N] [--rounds R] [--seed S]
//           [--synth N] [--threads N] [--metrics-out FILE]
//           [--trace-out FILE] [--progress]
//       Run the build pipeline under an observability session and print
//       the metrics/span report. The pipeline flags and their defaults
//       are build's, so the run profiles the world `patchdb build` makes.
//       --metrics-out also writes the JSON artifact (schema
//       patchdb.obs.v2, with a resource timeline when the sampler ran);
//       --trace-out writes a Chrome trace.
//   patchdb metrics --validate FILE.json
//       Parse a --metrics-out artifact, check the schema (patchdb.obs.v2,
//       the only one) and JSON round-trip, and print a summary. Exit 1
//       when malformed.
//
// Every command except `variants` (whose argument is C code) rejects a
// flag it does not take, and a path past the ones it names, with exit 2.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "analysis/report.h"
#include "core/categorize.h"
#include "core/patchdb.h"
#include "core/presence.h"
#include "diff/parse.h"
#include "feature/features.h"
#include "nn/encode.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "store/checkpoint.h"
#include "store/export.h"
#include "store/fsck.h"
#include "synth/variants.h"
#include "util/file.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace patchdb;
using util::Flags;

int usage() {
  std::fprintf(stderr,
               "usage: patchdb <command> [args]\n"
               "  build --out DIR [--nvd N] [--wild N] [--rounds R] [--seed S]\n"
               "        [--synth N] [--threads N] [--checkpoint-dir D] [--resume]\n"
               "        [--metrics-out FILE] [--trace-out FILE] [--progress]\n"
               "  stats DIR\n"
               "  fsck DIR\n"
               "  features FILE.patch [--all] [--semantic] [--interproc]\n"
               "  analyze FILE.patch [--unchanged] [--interproc]\n"
               "          [--metrics-out FILE] [--trace-out FILE] [--progress]\n"
               "  categorize FILE.patch\n"
               "  tokens FILE.patch\n"
               "  variants \"CONDITION\"\n"
               "  presence FILE.patch TARGET_SOURCE_FILE\n"
               "  metrics [--nvd N] [--wild N] [--rounds R] [--seed S]\n"
               "          [--synth N] [--threads N]\n"
               "          [--metrics-out FILE] [--trace-out FILE] [--progress]\n"
               "  metrics --validate FILE.json\n");
  return 2;
}

std::string read_file_or_die(const std::string& path) {
  std::optional<std::string> content = util::read_file(path);
  if (!content) {
    std::fprintf(stderr, "patchdb: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  return std::move(*content);
}

/// `--threads N`: size the default thread pool before anything touches
/// it (the obs session reads the pool's busy time when it starts, so
/// this must run first in the command). Strict like every numeric flag —
/// 0, junk, or a value after the pool already exists at a different size
/// is a usage error. Wins over the PATCHDB_THREADS environment variable.
bool apply_threads_flag(const Flags& flags) {
  if (!flags.has("--threads")) return true;
  const std::size_t threads = flags.value("--threads", std::size_t{0});
  if (threads == 0) {
    std::fprintf(stderr, "%s: --threads expects a positive integer\n",
                 flags.tool().c_str());
    return false;
  }
  try {
    util::configure_default_pool(threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: --threads %zu: %s\n", flags.tool().c_str(),
                 threads, e.what());
    return false;
  }
  return true;
}

/// The pipeline flags build and metrics share, as BuildOptions: the two
/// commands run the same world for the same flags.
core::BuildOptions pipeline_options(const Flags& flags) {
  core::BuildOptions options;
  options.world.repos = 40;
  options.world.nvd_security = flags.value("--nvd", std::size_t{400});
  options.world.wild_pool = flags.value("--wild", std::size_t{10000});
  options.world.seed = flags.value("--seed", std::size_t{42});
  options.augment.max_rounds = flags.value("--rounds", std::size_t{3});
  options.synthesis.max_per_patch = flags.value("--synth", std::size_t{4});
  return options;
}

/// The component counts of a built PatchDB, in the one line build and
/// metrics both print.
void print_components(const core::PatchDb& db) {
  std::printf("  nvd: %zu  wild: %zu  nonsecurity: %zu  synthetic: %zu\n",
              db.nvd_security.size(), db.wild_security.size(),
              db.nonsecurity.size(), db.synthetic.size());
}

int cmd_build(const Flags& flags) {
  if (!apply_threads_flag(flags)) return 2;
  const std::string out = flags.value("--out", std::string());
  if (out.empty()) {
    std::fprintf(stderr, "patchdb build: --out DIR is required\n");
    return 2;
  }
  const core::BuildOptions options = pipeline_options(flags);
  const std::string checkpoint_dir =
      flags.value("--checkpoint-dir", std::string());
  if (flags.has("--resume") && checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "patchdb build: --resume needs --checkpoint-dir D, the directory "
                 "it resumes from\n");
    return 2;
  }

  std::printf("building PatchDB: %zu NVD CVEs, %zu wild commits, %zu rounds, seed %zu%s\n",
              options.world.nvd_security, options.world.wild_pool,
              options.augment.max_rounds,
              static_cast<std::size_t>(options.world.seed),
              checkpoint_dir.empty() ? "" : " (checkpointed)");
  obs::ObsSession cli_obs("patchdb build", obs::artifact_request(flags));
  const core::PatchDb db = store::build_with_checkpoints(
      options, checkpoint_dir, flags.has("--resume"));
  const store::ExportStats stats = store::export_patchdb(db, out);
  if (!cli_obs.write_artifacts(cli_obs.report())) return 1;

  std::printf("exported %zu patches (%zu feature rows) to %s\n",
              stats.patches_written, stats.feature_rows,
              stats.root.string().c_str());
  print_components(db);
  for (const core::RoundStats& round : db.rounds) {
    std::printf("  round %zu: %zu candidates -> %zu security (%.0f%%)\n",
                round.round, round.candidates, round.verified_security,
                round.ratio * 100.0);
  }
  return 0;
}

int cmd_stats(const std::string& dir) {
  const store::LoadedPatchDb db = store::load_patchdb(dir);
  std::printf("dataset at %s\n", dir.c_str());
  std::printf("  nvd security:  %zu\n", db.nvd_security.size());
  std::printf("  wild security: %zu\n", db.wild_security.size());
  std::printf("  nonsecurity:   %zu\n", db.nonsecurity.size());
  std::printf("  synthetic:     %zu\n", db.synthetic.size());

  core::CompositionTally tally;
  for (const auto* records : {&db.nvd_security, &db.wild_security}) {
    for (const corpus::CommitRecord& r : *records) tally.add(r.patch, r.truth.type);
  }
  if (tally.total == 0) return 0;
  const auto share = [&](std::size_t count) {
    return util::format_percent(
        static_cast<double>(count) / static_cast<double>(tally.total), 1);
  };

  util::Table table("security patch composition (Table V taxonomy)");
  table.set_header({"ID", "Pattern", "Labeled %", "Categorizer %"});
  for (std::size_t i = 0; i < corpus::kSecurityTypeCount; ++i) {
    table.add_row({std::to_string(i + 1),
                   std::string(corpus::patch_type_name(corpus::security_types()[i])),
                   share(tally.labeled[i]), share(tally.predicted[i])});
  }
  std::printf("%s", table.render().c_str());
  std::printf("  categorizer agreement with labels: %.0f%%\n",
              100.0 * static_cast<double>(tally.agreement) /
                  static_cast<double>(tally.total));
  return 0;
}

int cmd_fsck(const std::string& dir) {
  if (dir.empty()) {
    std::fprintf(stderr, "patchdb fsck: need a dataset or checkpoint DIR\n");
    return 2;
  }
  const store::FsckReport report = store::fsck(dir);
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "fsck: %s\n", error.c_str());
  }
  if (!report.ok()) {
    std::fprintf(stderr, "fsck: %s: %zu error(s)\n", dir.c_str(),
                 report.errors.size());
    return 1;
  }
  std::printf("fsck: %s: ok (%zu files, %zu bytes, %zu rows verified)\n",
              dir.c_str(), report.files_checked, report.bytes_checked,
              report.manifest_rows);
  return 0;
}

int cmd_features(const std::string& path, bool all, bool semantic,
                 bool interproc) {
  const diff::Patch patch = diff::parse_patch(read_file_or_die(path));
  const feature::FeatureSpace space =
      interproc ? feature::FeatureSpace::kInterproc
                : semantic ? feature::FeatureSpace::kSemantic
                           : feature::FeatureSpace::kSyntactic;
  const std::vector<double> v = feature::extract(patch, space);
  const auto names = feature::feature_names(space);
  std::printf("commit %s: %zu files, %zu hunks\n", patch.commit.c_str(),
              patch.files.size(), patch.hunk_count());
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (all || v[i] != 0.0) {
      std::printf("  %2zu  %-24s %g\n", i + 1, std::string(names[i]).c_str(), v[i]);
    }
  }
  return 0;
}

int cmd_analyze(const Flags& flags) {
  const std::string path = flags.positional();
  const diff::Patch patch = diff::parse_patch(read_file_or_die(path));
  obs::ObsSession cli_obs("patchdb analyze", obs::artifact_request(flags));
  analysis::AnalyzeOptions analyze_options;
  analyze_options.interproc = flags.has("--interproc");
  const analysis::PatchAnalysis pa =
      analysis::analyze_patch(patch, analyze_options);
  std::printf("commit %s: %zu files, %zu hunks\n", patch.commit.c_str(),
              patch.files.size(), patch.hunk_count());
  analysis::ReportOptions options;
  options.show_unchanged = flags.has("--unchanged");
  std::printf("%s", analysis::render_report(pa, options).c_str());
  return cli_obs.write_artifacts(cli_obs.report()) ? 0 : 1;
}

int cmd_categorize(const std::string& path) {
  const diff::Patch patch = diff::parse_patch(read_file_or_die(path));
  const corpus::PatchType type = core::categorize(patch);
  std::printf("Type %d: %s\n", static_cast<int>(type),
              std::string(corpus::patch_type_name(type)).c_str());
  return 0;
}

int cmd_tokens(const std::string& path) {
  const diff::Patch patch = diff::parse_patch(read_file_or_die(path));
  for (const std::string& token : nn::patch_tokens(patch)) {
    std::printf("%s ", token.c_str());
  }
  std::printf("\n");
  return 0;
}

int cmd_presence(const std::string& patch_path, const std::string& target_path) {
  if (patch_path.empty() || target_path.empty()) {
    std::fprintf(stderr, "patchdb presence: need FILE.patch and TARGET file\n");
    return 2;
  }
  const diff::Patch patch = diff::parse_patch(read_file_or_die(patch_path));
  const std::string target_text = read_file_or_die(target_path);
  std::vector<std::string> target_lines;
  for (std::string_view line : util::split_lines(target_text)) {
    target_lines.emplace_back(line);
  }

  int exit_code = 0;
  for (const diff::FileDiff& fd : patch.files) {
    if (fd.hunks.empty()) continue;
    const core::PresenceReport report = core::test_presence(target_lines, fd);
    std::printf("%s: %s (%zu patched / %zu vulnerable / %zu unknown hunks)\n",
                fd.new_path.c_str(), core::presence_name(report.verdict),
                report.hunks_patched, report.hunks_vulnerable,
                report.hunks_unknown);
    if (report.verdict == core::Presence::kVulnerable) exit_code = 3;
  }
  return exit_code;
}

int cmd_metrics_validate(const std::string& path) {
  if (path.empty()) {
    std::fprintf(stderr, "patchdb metrics --validate: need FILE.json\n");
    return 2;
  }
  obs::RunReport report;
  try {
    report = obs::read_report_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "patchdb metrics: %s is not a valid report: %s\n",
                 path.c_str(), e.what());
    return 1;
  }
  // Round-trip check: serializing the parsed report must reproduce the
  // file's JSON value exactly (field loss here would silently corrupt
  // the perf-trajectory artifacts).
  const obs::Json reparsed = obs::Json::parse(read_file_or_die(path));
  if (report.to_json() != reparsed) {
    std::fprintf(stderr, "patchdb metrics: %s did not survive a JSON round-trip\n",
                 path.c_str());
    return 1;
  }
  std::printf("%s: valid %s report \"%s\"\n", path.c_str(),
              std::string(obs::kReportSchemaV2).c_str(), report.name.c_str());
  std::printf("  wall: %.1f ms, %zu counters, %zu gauges, %zu histograms, "
              "%zu spans (%llu dropped)",
              report.wall_ms, report.metrics.counters.size(),
              report.metrics.gauges.size(), report.metrics.histograms.size(),
              report.spans.size(),
              static_cast<unsigned long long>(report.spans_dropped));
  if (!report.resource_timeline.empty()) {
    std::printf(", %zu resource samples", report.resource_timeline.size());
  }
  std::printf("\n");
  return 0;
}

int cmd_metrics(const Flags& flags) {
  if (flags.has("--validate")) {
    return cmd_metrics_validate(flags.value("--validate", std::string()));
  }
  if (!apply_threads_flag(flags)) return 2;
  const core::BuildOptions options = pipeline_options(flags);

  obs::ObsSession cli_obs("patchdb metrics", obs::artifact_request(flags));
  const core::PatchDb db = core::build_patchdb(options);
  const obs::RunReport report = cli_obs.report();

  std::printf("pipeline:\n");
  print_components(db);
  std::printf("\n%s", report.render().c_str());

  return cli_obs.write_artifacts(report) ? 0 : 1;
}

int cmd_variants(const std::string& condition) {
  std::printf("if (%s) { ... }\n\n", condition.c_str());
  for (synth::IfVariant v : synth::all_variants()) {
    const synth::VariantRewrite r = synth::rewrite_if(v, condition, "  ");
    std::printf("-- variant %d: %s\n", static_cast<int>(v), synth::variant_name(v));
    for (const std::string& line : r.setup) std::printf("%s\n", line.c_str());
    std::printf("%s { ... }\n\n", r.new_if_head.c_str());
  }
  return 0;
}

/// The arguments one command takes: `values` each take the next
/// argument, `switches` stand alone, and at most `positionals` paths.
struct CommandFlags {
  std::vector<std::string> values;
  std::vector<std::string> switches;
  std::size_t positionals = SIZE_MAX;
};

/// nullopt for `variants`, whose argument is C code and may start with
/// "--"; no flags at all for the commands that take only paths. An
/// unknown command takes anything, and gets the usage text.
std::optional<CommandFlags> command_flags(const std::string& command) {
  // The world, round and thread knobs build and metrics share, and the
  // obs flags obs::artifact_request reads.
  std::vector<std::string> pipeline = {"--nvd",  "--wild",  "--rounds",
                                       "--seed", "--synth", "--threads"};
  pipeline.insert(pipeline.end(), obs::kArtifactValueFlags.begin(),
                  obs::kArtifactValueFlags.end());
  if (command == "build") {
    pipeline.insert(pipeline.end(), {"--out", "--checkpoint-dir"});
    return CommandFlags{pipeline, {"--resume", "--progress"}, 0};
  }
  if (command == "metrics") {
    pipeline.emplace_back("--validate");
    return CommandFlags{pipeline, {"--progress"}, 0};
  }
  if (command == "analyze") {
    return CommandFlags{obs::kArtifactValueFlags,
                        {"--unchanged", "--interproc", "--progress"}, 1};
  }
  if (command == "features") {
    return CommandFlags{{}, {"--all", "--semantic", "--interproc"}, 1};
  }
  if (command == "stats" || command == "fsck" || command == "categorize" ||
      command == "tokens") {
    return CommandFlags{{}, {}, 1};
  }
  if (command == "presence") return CommandFlags{{}, {}, 2};
  if (command == "variants") return std::nullopt;
  return CommandFlags{};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  Flags flags(argc, argv, 2, "patchdb " + command);
  const std::optional<CommandFlags> accepted = command_flags(command);
  if (accepted && !flags.accept(accepted->values, accepted->switches,
                                accepted->positionals)) {
    return 2;
  }
  try {
    if (command == "build") return cmd_build(flags);
    if (command == "stats") return cmd_stats(flags.positional());
    if (command == "fsck") return cmd_fsck(flags.positional());
    if (command == "features") {
      return cmd_features(flags.positional(), flags.has("--all"),
                          flags.has("--semantic"), flags.has("--interproc"));
    }
    if (command == "analyze") return cmd_analyze(flags);
    if (command == "categorize") return cmd_categorize(flags.positional());
    if (command == "tokens") return cmd_tokens(flags.positional());
    if (command == "variants") {
      return cmd_variants(argc >= 3 ? argv[2] : std::string());
    }
    if (command == "presence" && argc >= 4) {
      return cmd_presence(argv[2], argv[3]);
    }
    if (command == "metrics") return cmd_metrics(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "patchdb %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  return usage();
}
