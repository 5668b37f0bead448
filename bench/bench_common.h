// Shared helpers for the experiment benches: scaled world construction,
// feature dataset assembly, and paper-vs-measured table plumbing.
//
// Every bench accepts an optional scale multiplier as argv[1] (default
// 1.0). The default scale is roughly 1:5 of the paper's (4076 NVD
// patches -> 800; 100K/200K pools -> 20K/40K) so the full suite runs on
// one machine in minutes; pass 5 to run at paper scale.
#pragma once

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
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
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/table.h"

namespace patchdb::bench {

inline double parse_scale(int argc, char** argv) {
  // google-benchmark style flags (e.g. --benchmark_filter) are ignored.
  if (argc > 1 && argv[1][0] != '-') {
    // Full-consumption parse: "5x" or "1.5GB" is a typo'd run that
    // would otherwise silently bench the wrong scale — fail loudly.
    // isfinite + ERANGE reject "inf" and overflowing exponents like
    // "1e999" (strtod returns HUGE_VAL without an error flag in the
    // return value alone), which would otherwise ask for an infinite
    // world size.
    char* end = nullptr;
    errno = 0;
    const double s = std::strtod(argv[1], &end);
    if (end == argv[1] || *end != '\0' || errno == ERANGE ||
        !std::isfinite(s) || !(s > 0.0)) {
      std::fprintf(stderr,
                   "bench: bad scale \"%s\" (want a positive number, e.g. 1 "
                   "or 0.25 or 5)\n",
                   argv[1]);
      std::exit(2);
    }
    return s;
  }
  return 1.0;
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
  std::printf("scale multiplier: %.2f (pass a number as argv[1] to change; 5 = paper scale)\n",
              scale);
  std::printf("================================================================\n\n");
}

/// Value of `--NAME FILE` / `--NAME=FILE` at any argv position. Empty
/// when absent.
inline std::string parse_flag_value(int argc, char** argv,
                                    std::string_view name) {
  const std::string eq_form = "--" + std::string(name) + "=";
  const std::string flag_form = "--" + std::string(name);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == flag_form && i + 1 < argc) return argv[i + 1];
    if (arg.rfind(eq_form, 0) == 0) {
      return std::string(arg.substr(eq_form.size()));
    }
  }
  return {};
}

inline bool parse_flag_present(int argc, char** argv, std::string_view name) {
  const std::string flag_form = "--" + std::string(name);
  for (int i = 1; i < argc; ++i) {
    if (flag_form == argv[i]) return true;
  }
  return false;
}

/// util::parse_size of a numeric flag value: full consumption, no
/// sign, overflow rejected — exits 2 with the offending text, like
/// parse_scale.
inline std::uint64_t parse_uint_flag(std::string_view flag,
                                     const std::string& text) {
  std::size_t value = 0;
  if (!util::parse_size(text, value)) {
    std::fprintf(stderr, "bench: bad --%.*s value \"%s\" (want a non-negative "
                 "integer)\n",
                 static_cast<int>(flag.size()), flag.data(), text.c_str());
    std::exit(2);
  }
  return value;
}

/// The obs artifacts and progress heartbeat a bench's flags ask for
/// (any argv position, `--flag V` or `--flag=V`):
///
///   --metrics-out FILE   write the RunReport JSON
///   --trace-out FILE     write a Chrome trace (load in Perfetto)
///   --sample-ms N        run a ResourceSampler at N ms (default 50
///                        whenever --trace-out or --metrics-out is on)
///   --progress[-ms N]    heartbeat lines from instrumented loops
inline obs::ArtifactRequest artifact_request(int argc, char** argv) {
  obs::ArtifactRequest request;
  request.metrics_out = parse_flag_value(argc, argv, "metrics-out");
  request.trace_out = parse_flag_value(argc, argv, "trace-out");
  const std::string sample_ms = parse_flag_value(argc, argv, "sample-ms");
  if (!sample_ms.empty()) request.sample_ms = parse_uint_flag("sample-ms", sample_ms);
  request.progress = parse_flag_present(argc, argv, "progress");
  const std::string progress_ms = parse_flag_value(argc, argv, "progress-ms");
  if (!progress_ms.empty()) {
    request.progress_ms = parse_uint_flag("progress-ms", progress_ms);
  }
  return request;
}

/// Per-bench observability session. Construct it first thing in main():
/// it parses the scale plus the shared obs flags (artifact_request),
/// prints the bench header, and runs an obs::ArtifactSession so every
/// instrumented pipeline stage the bench touches records into one
/// registry.
///
/// Call add_items() with the bench's natural unit of work; finish()
/// (implicit in the destructor) prints the one-line summary — items,
/// wall ms, items/s — straight from the registry and writes the
/// requested artifacts.
class Session {
 public:
  Session(const std::string& title, int argc, char** argv)
      : scale_(parse_scale(argc, argv)), obs_(title, artifact_request(argc, argv)) {
    print_header(title, scale_);
  }
  ~Session() { finish(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  double scale() const noexcept { return scale_; }

  /// Count `n` units of bench work (counter `bench.items`).
  void add_items(std::size_t n) { obs::counter_add("bench.items", n); }

  void finish() {
    if (finished_) return;
    finished_ = true;
    if (obs_.session().installed()) {
      // Record the pool's actual shape into the artifact: the worker
      // count as a gauge and each worker's cumulative busy time as a
      // histogram observation. A single-threaded pathology (the
      // pool.threads: 1 bench runs this replaces) then shows up as
      // workers_active = 1 with one hot histogram lane, instead of
      // silently producing a serial measurement.
      const std::vector<double> busy = util::default_pool().worker_busy_ms();
      std::size_t active = 0;
      for (const double ms : busy) {
        obs::histogram_observe("pool.worker_busy_ms", ms);
        if (ms > 0.0) ++active;
      }
      obs::gauge_set("pool.threads",
                     static_cast<double>(util::default_pool().size()));
      obs::gauge_set("pool.workers_active", static_cast<double>(active));
    }
    const obs::RunReport report = obs_.report();
    const std::uint64_t items = report.metrics.counter("bench.items");
    const double rate =
        report.wall_ms > 0.0
            ? static_cast<double>(items) / (report.wall_ms / 1000.0)
            : 0.0;
    std::printf("[bench] %s: %llu items in %.1f ms (%.0f items/s)\n",
                obs_.session().name().c_str(), static_cast<unsigned long long>(items),
                report.wall_ms, rate);
    obs_.write_artifacts(report);
  }

 private:
  double scale_;
  obs::ArtifactSession obs_;
  bool finished_ = false;
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
