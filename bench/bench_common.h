// Shared helpers for the experiment benches: the one bench front end
// (Session), scaled world construction, feature dataset assembly, and
// paper-vs-measured table plumbing.
//
// Every bench takes a scale multiplier as its one positional argument,
// wherever it sits among the flags (default 1.0). The default scale is
// roughly 1:5 of the paper's (4076 NVD patches -> 800; 100K/200K pools
// -> 20K/40K) so the full suite runs on one machine in minutes; pass 5
// to run at paper scale. The flags are the obs ones every binary takes
// (--metrics-out FILE, --trace-out FILE, --sample-ms N, --progress) plus
// any a bench declares, all through util::Flags: `--name value` is the
// only form, and an unknown flag, a second positional argument or a bad
// scale exits 2 and names the argument.
#pragma once

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "corpus/repo.h"
#include "corpus/world.h"
#include "feature/features.h"
#include "ml/data.h"
#include "nn/encode.h"
#include "nn/gru.h"
#include "nn/vocab.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "util/table.h"

namespace patchdb::bench {

/// The scale, the one positional argument: a strict positive number,
/// or 1 when there is none.
inline double parse_scale(const util::Flags& flags) {
  const std::string text = flags.positional();
  if (text.empty()) return 1.0;
  // Full-consumption parse: "5x" or "1.5GB" is a typo'd run that
  // would otherwise silently bench the wrong scale — fail loudly.
  // isfinite + ERANGE reject "inf" and overflowing exponents like
  // "1e999" (strtod returns HUGE_VAL without an error flag in the
  // return value alone), which would otherwise ask for an infinite
  // world size.
  char* end = nullptr;
  errno = 0;
  const double s = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(s) || !(s > 0.0)) {
    std::fprintf(stderr,
                 "%s: bad scale \"%s\" (want a positive number, e.g. 1 "
                 "or 0.25 or 5)\n",
                 flags.tool().c_str(), text.c_str());
    std::exit(2);
  }
  return s;
}

inline std::size_t scaled(std::size_t base, double scale) {
  const auto v = static_cast<std::size_t>(static_cast<double>(base) * scale);
  return v == 0 ? 1 : v;
}

/// Pointers into a world's record vectors (the shape AugmentationLoop
/// and the baselines consume).
inline std::vector<const corpus::CommitRecord*> as_pointers(
    const std::vector<corpus::CommitRecord>& records) {
  std::vector<const corpus::CommitRecord*> out;
  out.reserve(records.size());
  for (const corpus::CommitRecord& r : records) out.push_back(&r);
  return out;
}

/// Feature rows of a record set, in order, in `space`: one
/// feature::extract_all batch.
inline feature::FeatureMatrix features_of(
    const std::vector<const corpus::CommitRecord*>& records,
    feature::FeatureSpace space = feature::FeatureSpace::kSyntactic) {
  std::vector<const diff::Patch*> patches;
  patches.reserve(records.size());
  for (const corpus::CommitRecord* r : records) patches.push_back(&r->patch);
  return feature::extract_all(patches, space);
}

/// Labeled feature dataset (label from ground truth).
inline ml::Dataset feature_dataset(
    const std::vector<const corpus::CommitRecord*>& records,
    feature::FeatureSpace space = feature::FeatureSpace::kSyntactic) {
  const feature::FeatureMatrix rows = features_of(records, space);
  ml::Dataset data;
  for (std::size_t i = 0; i < records.size(); ++i) {
    data.push_back({rows[i].begin(), rows[i].end()},
                   records[i]->truth.is_security ? 1 : 0);
  }
  return data;
}

/// Fabricate `n` labeled non-security commits (the "cleaned non-security
/// patches previously verified by experts" training sets of Tables III,
/// IV and VI). Cleaned sets skew toward unambiguous commits — ambiguous
/// hardening commits are underrepresented relative to the raw wild
/// stream (this mismatch between training negatives and the wild's
/// negative modes is what the paper blames for the pseudo-labeling
/// baseline's collapse). `defensive_share` controls how many ambiguous
/// security-shaped commits remain after cleaning: 0 for the Table III
/// training set; a small share for the classification datasets of
/// Tables IV/VI, whose verified negatives do legitimately include
/// hardening commits the experts recognized as non-security from
/// context.
inline std::vector<corpus::CommitRecord> make_nonsecurity_set(
    std::size_t n, std::uint64_t seed, bool keep_snapshots = false,
    double defensive_share = 0.0) {
  util::Rng rng(seed);
  corpus::CommitOptions opt;
  opt.keep_snapshots = keep_snapshots;
  std::vector<corpus::CommitRecord> out;
  out.reserve(n);
  const double rest = 1.0 - defensive_share;
  const double kWeights[] = {
      0.24 * rest,  // kNewFeature
      0.14 * rest,  // kRefactor
      0.15 * rest,  // kPerfFix
      0.23 * rest,  // kLogicBugFix
      0.14 * rest,  // kStyle
      0.10 * rest,  // kDocs
      defensive_share,
  };
  const auto kinds = corpus::nonsecurity_types();
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(corpus::make_commit(
        rng, "bench_repo", kinds[rng.weighted(kWeights)], opt));
  }
  return out;
}

/// Token sequences for the GRU from records (+ optional synthetic set).
struct TokenTask {
  nn::Vocabulary vocab;
  nn::SequenceDataset train;
  nn::SequenceDataset test;
};

inline std::vector<std::string> tokens_of(const diff::Patch& patch) {
  return nn::patch_tokens(patch);
}

inline void print_header(const std::string& title, double scale) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("scale multiplier: %.2f (pass a number to change; 5 = paper scale)\n",
              scale);
  std::printf("================================================================\n\n");
}

/// The argv of a bench after util::Flags::accept: the obs flags and
/// `values`, and at most one positional argument (the scale). Exits 2
/// on anything else.
inline util::Flags bench_flags(int argc, char** argv,
                               std::vector<std::string> values) {
  util::Flags flags(argc, argv, 1,
                    std::filesystem::path(argv[0]).filename().string());
  values.insert(values.end(), obs::kArtifactValueFlags.begin(),
                obs::kArtifactValueFlags.end());
  if (!flags.accept(values, {"--progress"}, 1)) std::exit(2);
  return flags;
}

/// The bench front end. Construct it first thing in main(): it parses
/// argv (bench_flags), prints the bench header and runs an
/// obs::ObsSession, so every instrumented pipeline stage the bench
/// touches records into one registry. `values` are the bench's own
/// value flags, read through flags().
///
/// Call add_items() with the bench's natural unit of work; the
/// destructor prints the one-line summary — items, wall ms, items/s —
/// straight from the report and writes the requested artifacts.
class Session {
 public:
  Session(const std::string& title, int argc, char** argv,
          std::vector<std::string> values = {})
      : flags_(bench_flags(argc, argv, std::move(values))),
        scale_(parse_scale(flags_)),
        obs_(title, obs::artifact_request(flags_)) {
    print_header(title, scale_);
  }
  ~Session() {
    const obs::RunReport report = obs_.report();
    const std::uint64_t items = report.metrics.counter("bench.items");
    const double rate =
        report.wall_ms > 0.0
            ? static_cast<double>(items) / (report.wall_ms / 1000.0)
            : 0.0;
    std::printf("[bench] %s: %llu items in %.1f ms (%.0f items/s)\n",
                obs_.name().c_str(), static_cast<unsigned long long>(items),
                report.wall_ms, rate);
    obs_.write_artifacts(report);
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  double scale() const noexcept { return scale_; }
  const util::Flags& flags() const noexcept { return flags_; }

  /// Count `n` units of bench work (counter `bench.items`).
  void add_items(std::size_t n) { obs::counter_add("bench.items", n); }

 private:
  util::Flags flags_;
  double scale_;
  obs::ObsSession obs_;
};

/// Run `fn` under a trace span and return its wall time in milliseconds
/// (replacement for the per-bench hand-rolled Clock/ms_since timers).
template <typename F>
inline double timed_ms(const char* span_name, F&& fn) {
  const auto start = std::chrono::steady_clock::now();
  {
    obs::ScopedSpan span(span_name);
    fn();
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace patchdb::bench
