// perfbench driver: the measured half of the end-to-end benchmark.
//
// Each subcommand runs one phase through the program's public entry
// points and prints one JSON object as the last line of stdout. run.py
// builds this binary, owns the tmpfs work area and the patchdbd
// processes, and turns these objects into the benchmark report.
//
//   build --shape deep|wide --seed S --seconds T --out DIR
//       Full builds (core::build_patchdb + store::export_patchdb) until
//       T seconds have passed, then set-up-only passes until
//       --min-setups set-ups were timed. Checks every export.
//   traced-build --shape deep|wide --seed S --out DIR --trace-out FILE
//       One untraced build, then a stage-by-stage replay of
//       core::build_patchdb under benchmark spans. Both exports must
//       carry the same digest.
//   load --port P --fixture DIR --mix point|mix --seed S --seconds T
//        --daemon-pid PID [--trace-out FILE]
//       Closed-loop serve::Client connections against a running
//       patchdbd; a sample of responses is compared byte for byte with
//       in-process ServedDataset::handle over the same fixture.
//   replay --fixture DIR --seed S --trace-out FILE
//       In-process replay of both request streams under spans.
//   inputs --seed S
//       Digest of the generated inputs: the build-wide world and a
//       request stream drawn over it.
//
// Output checks never abort: a failed check is counted in "failed" and
// described in "errors", and run.py turns it into a failed run.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/analyze.h"
#include "core/augment.h"
#include "core/patchdb.h"
#include "corpus/world.h"
#include "diff/parse.h"
#include "diff/render.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "serve/client.h"
#include "serve/dataset.h"
#include "serve/protocol.h"
#include "store/export.h"
#include "store/fsck.h"
#include "synth/synthesize.h"
#include "util/thread_pool.h"

namespace {

namespace fs = std::filesystem;
using namespace patchdb;
using Clock = std::chrono::steady_clock;
using obs::Json;

// ------------------------------------------------------------ plumbing --

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) args_.emplace_back(argv[i]);
  }
  std::string str(const std::string& name, std::string fallback = {}) const {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) return args_[i + 1];
    }
    return fallback;
  }
  std::string required(const std::string& name) const {
    const std::string value = str(name);
    if (value.empty()) throw std::invalid_argument(name + " is required");
    return value;
  }
  std::uint64_t num(const std::string& name, std::uint64_t fallback) const {
    const std::string raw = str(name);
    return raw.empty() ? fallback : std::stoull(raw);
  }
  double real(const std::string& name, double fallback) const {
    const std::string raw = str(name);
    return raw.empty() ? fallback : std::stod(raw);
  }
  bool has(const std::string& name) const {
    return std::find(args_.begin(), args_.end(), name) != args_.end();
  }

 private:
  std::vector<std::string> args_;
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// VmHWM of this process, in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// utime and stime of a whole process, in seconds.
struct ProcCpu {
  double user_s = 0.0;
  double sys_s = 0.0;
};

ProcCpu proc_cpu(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), {});
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("no /proc/" + pid + "/stat");
  std::istringstream fields(text.substr(close + 2));
  std::vector<std::string> f;
  std::string field;
  while (fields >> field) f.push_back(field);
  // f[0] is field 3 (state); utime and stime are fields 14 and 15.
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return {std::stod(f.at(11)) / tick, std::stod(f.at(12)) / tick};
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  return std::string((std::istreambuf_iterator<char>(in)), {});
}

std::uint64_t fnv1a(std::string_view data,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

/// Digest of the sealed manifest.csv + features.csv. Together they carry
/// every patch's content checksum and every natural feature row, so two
/// exports with the same digest hold the same dataset.
std::string export_digest(const fs::path& root) {
  std::uint64_t hash = fnv1a(read_file(root / "manifest.csv"));
  hash = fnv1a(read_file(root / "features.csv"), hash);
  return hex(hash);
}

double tree_mib(const fs::path& root) {
  std::uintmax_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

Json json_array(const std::vector<double>& values) {
  Json out = Json::array();
  for (const double v : values) out.push_back(v);
  return out;
}

Json json_strings(const std::vector<std::string>& values) {
  Json out = Json::array();
  for (const std::string& v : values) out.push_back(v);
  return out;
}

void emit(const Json& result) { std::printf("%s\n", result.dump().c_str()); }

// --------------------------------------------------------------- spans --

/// In-memory spans recorded by the benchmark's own code around calls
/// into the program's layers. Written at exit as a Chrome trace through
/// the obs exporter; one log per thread, one trace id per run.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint32_t depth = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };

  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log), index_(log.open(std::move(name))) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  SpanLog(Clock::time_point epoch, std::uint32_t track, std::uint64_t first_id)
      : epoch_(epoch), track_(track), next_id_(first_id) {}

  Scope scope(std::string name) { return Scope(*this, std::move(name)); }

  /// Span times are kept in nanoseconds: a lookup's handler takes a few
  /// microseconds, so microsecond ticks would quantize the medians.
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  /// A completed span, child of the innermost open one.
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns) {
    Span span{std::move(name), next_id_++, parent_id(),
              static_cast<std::uint32_t>(stack_.size()), start_ns, end_ns};
    spans_.push_back(std::move(span));
  }

  /// Duration of the last completed span called `name`, in seconds.
  double last_s(const std::string& name) const {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->name == name && it->end_ns >= 0) return (it->end_ns - it->start_ns) / 1e9;
    }
    return 0.0;
  }

  /// Every completed span called `name`, in microseconds.
  std::vector<double> all_us(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name && span.end_ns >= 0) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
    return out;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint32_t track() const noexcept { return track_; }

 private:
  std::size_t open(std::string name) {
    spans_.push_back(Span{std::move(name), next_id_++, parent_id(),
                          static_cast<std::uint32_t>(stack_.size()), now_ns(), -1});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }
  std::uint64_t parent_id() const { return stack_.empty() ? 0 : spans_[stack_.back()].id; }

  Clock::time_point epoch_;
  std::uint32_t track_;
  std::uint64_t next_id_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Per-name count, total and self time (duration minus the part its
/// direct children cover), printed for the traced runs.
void print_self_times(const std::vector<const SpanLog*>& logs) {
  struct Row {
    std::size_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const SpanLog* log : logs) {
    std::map<std::uint64_t, double> child_ns;
    for (const auto& span : log->spans()) {
      if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
    }
    for (const auto& span : log->spans()) {
      Row& row = rows[span.name];
      const double dur = static_cast<double>(span.end_ns - span.start_ns);
      ++row.count;
      row.total_ns += dur;
      row.self_ns += dur - child_ns[span.id];
    }
  }
  std::printf("%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, row] : rows) {
    std::printf("%-34s %8zu %12.3f %12.3f\n", name.c_str(), row.count,
                row.total_ns / 1e6, row.self_ns / 1e6);
  }
}

void write_trace(const std::vector<const SpanLog*>& logs, const std::string& name,
                 double wall_ms, const std::string& path) {
  obs::RunReport report;
  report.name = name;
  report.wall_ms = wall_ms;
  for (const SpanLog* log : logs) {
    for (const auto& span : log->spans()) {
      obs::SpanRecord record;
      record.name = span.name;
      record.thread_index = log->track();
      record.span_id = span.id;
      record.parent_id = span.parent;
      record.depth = span.depth;
      record.start_us = span.start_ns / 1000;
      record.wall_us = (span.end_ns - span.start_ns) / 1000;
      report.spans.push_back(std::move(record));
    }
  }
  obs::write_trace_file(report, path);
}

// ---------------------------------------------------------- build side --

/// The options `patchdb build --nvd N --wild W --rounds R --seed S` sets.
core::BuildOptions build_options(const std::string& shape, std::uint64_t seed) {
  core::BuildOptions options;
  options.world.repos = 40;
  if (shape == "deep") {
    options.world.nvd_security = 2000;
    options.world.wild_pool = 100000;
    options.augment.max_rounds = 3;
  } else if (shape == "wide") {
    options.world.nvd_security = 4000;
    options.world.wild_pool = 20000;
    options.augment.max_rounds = 1;
  } else {
    throw std::invalid_argument("unknown shape " + shape);
  }
  options.world.seed = seed;
  options.synthesis.max_per_patch = 4;
  return options;
}

struct HitRatio {
  std::size_t candidates = 0;
  std::size_t verified = 0;
  double ratio() const {
    return candidates ? static_cast<double>(verified) / static_cast<double>(candidates) : 0.0;
  }
};

HitRatio hit_ratio(const std::vector<core::RoundStats>& rounds) {
  HitRatio r;
  for (const core::RoundStats& round : rounds) {
    r.candidates += round.candidates;
    r.verified += round.verified_security;
  }
  return r;
}

/// Thrown from before_rounds to end a set-up-only pass.
struct SetupDone {};

struct BuildSample {
  double setup_s = 0.0;
  double build_s = 0.0;  // 0 for a set-up-only pass
  double cpu_s = 0.0;
  HitRatio hits;
  std::size_t patches = 0;
};

/// One run of the public pipeline, timed at BuildHooks::before_rounds:
/// set-up is everything before it (world simulation, seed features),
/// the build everything after it up to export_patchdb's return.
BuildSample timed_build(const core::BuildOptions& options, const fs::path& out,
                        bool setup_only) {
  fs::remove_all(out);
  BuildSample sample;
  Clock::time_point ready;
  double cpu_ready = 0.0;
  core::BuildHooks hooks;
  hooks.before_rounds = [&](core::AugmentationLoop&, corpus::World&) -> bool {
    ready = Clock::now();
    cpu_ready = process_cpu_s();
    if (setup_only) throw SetupDone{};
    return false;
  };
  const Clock::time_point t0 = Clock::now();
  try {
    const core::PatchDb db = core::build_patchdb(options, hooks);
    const store::ExportStats stats = store::export_patchdb(db, out);
    sample.build_s = since(ready);
    sample.cpu_s = process_cpu_s() - cpu_ready;
    sample.hits = hit_ratio(db.rounds);
    sample.patches = stats.patches_written;
  } catch (const SetupDone&) {
  }
  sample.setup_s = std::chrono::duration<double>(ready - t0).count();
  return sample;
}

/// fsck and the digest of an export; problems go to `errors`.
std::string check_export(const fs::path& out, std::vector<std::string>& errors) {
  const store::FsckReport report = store::fsck(out);
  for (const std::string& e : report.errors) errors.push_back("fsck: " + e);
  try {
    return export_digest(out);
  } catch (const std::exception& e) {
    errors.push_back(e.what());
    return {};
  }
}

/// Test hook: flip one byte of one exported patch file.
void corrupt_export(const fs::path& out) {
  for (const auto& entry : fs::recursive_directory_iterator(out / "nvd")) {
    if (!entry.is_regular_file()) continue;
    std::fstream f(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0);
    char c = 0;
    f.get(c);
    f.seekp(0);
    f.put(static_cast<char>(c ^ 0x20));
    return;
  }
}

int cmd_build(const Args& args) {
  const std::string shape = args.required("--shape");
  const core::BuildOptions options = build_options(shape, args.num("--seed", 42));
  const double seconds = args.real("--seconds", 10.0);
  const std::size_t min_setups = args.num("--min-setups", 3);
  const fs::path out = args.required("--out");
  util::configure_default_pool(args.num("--threads", 2));

  std::vector<BuildSample> builds;
  std::vector<double> setups;
  std::vector<std::string> errors;
  std::vector<std::string> digests;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const Clock::time_point t0 = Clock::now();
  while (builds.empty() || since(t0) < seconds) {
    ++attempted;
    // The program's always-on instrumentation, as the CLI installs it.
    obs::ObsSession session("patchdb build");
    const BuildSample sample = timed_build(options, out, false);
    builds.push_back(sample);
    setups.push_back(sample.setup_s);
    if (args.has("--corrupt-export")) corrupt_export(out);
    std::vector<std::string> problems;
    digests.push_back(check_export(out, problems));
    if (digests.back() != digests.front()) {
      problems.push_back("export digest changed between builds of one seed");
    }
    if (!problems.empty()) ++failed;
    errors.insert(errors.end(), problems.begin(), problems.end());
  }
  while (setups.size() < min_setups) {
    ++attempted;
    obs::ObsSession session("patchdb build");
    setups.push_back(timed_build(options, out, true).setup_s);
  }

  std::vector<double> build_s;
  std::vector<double> cpu_s;
  for (const BuildSample& b : builds) {
    build_s.push_back(b.build_s);
    cpu_s.push_back(b.cpu_s);
  }
  Json result = Json::object();
  result.set("setup_s", json_array(setups));
  result.set("build_s", json_array(build_s));
  result.set("cpu_s", json_array(cpu_s));
  result.set("hit_ratio", builds.front().hits.ratio());
  result.set("candidates", builds.front().hits.candidates);
  result.set("verified", builds.front().hits.verified);
  result.set("patches", builds.front().patches);
  result.set("peak_rss_mb", peak_rss_mb());
  result.set("digest", digests.front());
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("errors", json_strings(errors));
  emit(result);
  return 0;
}

/// Stage-by-stage replay of core::build_patchdb (src/core/patchdb.cpp)
/// under benchmark spans. Produces the same PatchDb; the caller checks
/// that by digest against an untraced build.
core::PatchDb replay_build(const core::BuildOptions& options, SpanLog& log,
                           std::size_t& feature_rows) {
  core::PatchDb db;
  corpus::World world = [&] {
    auto span = log.scope("corpus.build_world");
    return corpus::build_world(options.world);
  }();
  feature_rows = world.nvd_security.size() + world.wild.size();
  db.crawl_stats = world.crawl_stats;
  db.nvd_security = world.nvd_security;

  core::AugmentationLoop loop = [&] {
    auto span = log.scope("feature.seed_features");
    std::vector<const corpus::CommitRecord*> seed;
    seed.reserve(world.nvd_security.size());
    for (const corpus::CommitRecord& r : world.nvd_security) seed.push_back(&r);
    return core::AugmentationLoop(std::move(seed), world.oracle);
  }();
  {
    auto span = log.scope("feature.pool_features");
    std::vector<const corpus::CommitRecord*> pool;
    pool.reserve(world.wild.size());
    for (const corpus::CommitRecord& r : world.wild) pool.push_back(&r);
    loop.set_pool(std::move(pool));
  }
  {
    auto span = log.scope("core.rounds");
    std::int64_t round_start = log.now_ns();
    loop.set_round_callback([&](const core::AugmentationLoop&, const core::RoundStats& r) {
      const std::int64_t now = log.now_ns();
      log.add("core.round" + std::to_string(r.round), round_start, now);
      round_start = now;
    });
    db.rounds = loop.run(options.augment);
    db.verification_effort = world.oracle.effort();
    for (const corpus::CommitRecord* r : loop.wild_security()) db.wild_security.push_back(*r);
    for (const corpus::CommitRecord* r : loop.nonsecurity()) db.nonsecurity.push_back(*r);
  }
  if (options.run_synthesis) {
    auto span = log.scope("synth.synthesize_all");
    db.synthetic = synth::synthesize_all(db.nvd_security, options.synthesis,
                                         options.world.seed ^ 0x5f5f5f5fULL);
    const auto wild_synth = synth::synthesize_all(db.wild_security, options.synthesis,
                                                  options.world.seed ^ 0x3c3c3c3cULL);
    db.synthetic.insert(db.synthetic.end(), wild_synth.begin(), wild_synth.end());
  }
  return db;
}

double busy_ms_total() {
  double total = 0.0;
  for (const double ms : util::default_pool().worker_busy_ms()) total += ms;
  return total;
}

int cmd_traced_build(const Args& args) {
  const std::string shape = args.required("--shape");
  const core::BuildOptions options = build_options(shape, args.num("--seed", 42));
  const fs::path out = args.required("--out");
  const std::size_t threads = args.num("--threads", 2);
  util::configure_default_pool(threads);
  std::vector<std::string> errors;

  // Untraced reference build: same calls, same session, no spans.
  BuildSample untraced;
  std::string untraced_digest;
  {
    obs::ObsSession session("patchdb build");
    untraced = timed_build(options, out, false);
    untraced_digest = check_export(out, errors);
  }
  fs::remove_all(out);

  const Clock::time_point epoch = Clock::now();
  SpanLog log(epoch, static_cast<std::uint32_t>(args.num("--trace-id", 1)), 1);
  obs::ObsSession session("patchdb build");
  const double busy_before = busy_ms_total();
  std::size_t patches = 0;
  std::size_t feature_rows = 0;
  HitRatio hits;
  std::size_t synthetic = 0;
  {
    auto root = log.scope("build." + shape);
    core::PatchDb db = replay_build(options, log, feature_rows);
    hits = hit_ratio(db.rounds);
    synthetic = db.synthetic.size();
    auto span = log.scope("store.export_patchdb");
    patches = store::export_patchdb(db, out).patches_written;
  }
  const std::int64_t end_ns = log.now_ns();
  const obs::MetricsSnapshot counters = session.registry().snapshot();
  const std::string digest = check_export(out, errors);
  if (digest != untraced_digest) {
    errors.push_back("traced replay export digest " + digest +
                     " differs from the untraced build's " + untraced_digest);
  }

  // Span boundaries: set-up ends where before_rounds would fire, after
  // the seed features; the build runs from there to the export's end.
  const auto& spans = log.spans();
  auto find = [&](const std::string& name) -> const SpanLog::Span& {
    for (const auto& s : spans) {
      if (s.name == name) return s;
    }
    throw std::runtime_error("missing span " + name);
  };
  const auto& root = find("build." + shape);
  const auto& seed_span = find("feature.seed_features");
  double attributed_ns = 0.0;
  for (const auto& s : spans) {
    if (s.parent == root.id) attributed_ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  const double total_ns = static_cast<double>(root.end_ns - root.start_ns);
  const double traced_build_s = (end_ns - seed_span.end_ns) / 1e9;
  const double busy_ms = busy_ms_total() - busy_before;

  Json rounds = Json::array();
  for (std::size_t r = 1; r <= options.augment.max_rounds; ++r) {
    rounds.push_back(log.last_s("core.round" + std::to_string(r)));
  }
  Json c = Json::object();
  for (const char* name : {"distance.cells", "nearest_link.rescans", "nearest_link.links"}) {
    if (counters.counters.count(name)) c.set(name, counters.counter(name));
  }
  print_self_times({&log});

  Json result = Json::object();
  result.set("untraced_setup_s", untraced.setup_s);
  result.set("untraced_build_s", untraced.build_s);
  result.set("setup_s", (seed_span.end_ns - root.start_ns) / 1e9);
  result.set("build_s", traced_build_s);
  result.set("world_s", log.last_s("corpus.build_world"));
  result.set("feature_s",
             log.last_s("feature.seed_features") + log.last_s("feature.pool_features"));
  result.set("feature_rows", feature_rows);
  result.set("rounds_s", rounds);
  result.set("synth_s", log.last_s("synth.synthesize_all"));
  result.set("synth_patches", synthetic);
  result.set("export_s", log.last_s("store.export_patchdb"));
  result.set("export_mib", tree_mib(out));
  result.set("patches", patches);
  result.set("hit_ratio", hits.ratio());
  // Pool busy time over the whole replay (set-up included: the seed
  // features run on the pool too) against its capacity.
  result.set("pool_busy_share", busy_ms / 1e3 / (static_cast<double>(threads) * total_ns / 1e9));
  result.set("attributed_pct", 100.0 * attributed_ns / total_ns);
  result.set("counters", c);
  result.set("digest", digest);
  result.set("untraced_digest", untraced_digest);
  result.set("attempted", std::size_t{2});
  result.set("failed", errors.empty() ? std::size_t{0} : std::size_t{1});
  result.set("errors", json_strings(errors));
  const std::string trace_out = args.str("--trace-out");
  if (!trace_out.empty()) {
    write_trace({&log}, "perfbench build-" + shape, static_cast<double>(end_ns) / 1e6, trace_out);
  }
  emit(result);
  return 0;
}

// ---------------------------------------------------------- serve side --

struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

/// What a request stream is drawn from: every id, how many leading ids
/// are natural patches (the nearest/analyze corpus), and their diffs.
struct Catalog {
  std::vector<std::string> ids;
  std::size_t natural = 0;
  std::function<std::string(std::size_t)> diff_text;
};

Catalog catalog_of(const serve::ServedDataset& ds) {
  Catalog c;
  for (std::size_t i = 0; i < ds.size(); ++i) c.ids.push_back(ds.patch(i).id);
  c.natural = ds.natural_size();
  c.diff_text = [&ds](std::size_t i) { return diff::render_patch(ds.patch(i).patch); };
  return c;
}

constexpr std::size_t kMixCycle = 5;

/// Client `client`'s request stream. point: lookups of uniformly drawn
/// ids. mix: cycles of lookup, features, nearest(k=10), stats, analyze,
/// with analyze bodies the diffs of uniformly drawn natural patches.
std::vector<serve::Request> make_stream(const Catalog& catalog, const std::string& mix,
                                        std::uint64_t seed, std::uint64_t client,
                                        std::size_t cycles) {
  Rng rng{seed * 0x100000001b3ULL + client + 1};
  std::vector<serve::Request> stream;
  for (std::size_t i = 0; i < cycles; ++i) {
    serve::Request lookup;
    lookup.op = serve::Op::kLookup;
    lookup.lookup.id = catalog.ids[rng.below(catalog.ids.size())];
    stream.push_back(lookup);
    if (mix == "point") continue;
    if (mix != "mix") throw std::invalid_argument("unknown mix " + mix);
    serve::Request features;
    features.op = serve::Op::kFeatures;
    features.features.id = catalog.ids[rng.below(catalog.ids.size())];
    stream.push_back(features);
    serve::Request nearest;
    nearest.op = serve::Op::kNearest;
    nearest.nearest.by_id = true;
    nearest.nearest.id = catalog.ids[rng.below(catalog.natural)];
    nearest.nearest.k = 10;
    stream.push_back(nearest);
    serve::Request stats;
    stats.op = serve::Op::kStats;
    stream.push_back(stats);
    serve::Request analyze;
    analyze.op = serve::Op::kAnalyze;
    analyze.analyze.diff_text = catalog.diff_text(rng.below(catalog.natural));
    stream.push_back(analyze);
  }
  return stream;
}

std::size_t stream_cycles(const std::string& mix) { return mix == "point" ? 32768 : 1024; }

struct Sample {
  std::size_t index = 0;  // position in the client's stream
  std::string encoded;    // the daemon's response, re-encoded
};

/// One closed-loop connection's record of the measured phase.
struct ClientLog {
  std::vector<double> done_s;   // completion, seconds since measure start
  std::vector<float> lat_us;    // client-observed latency
  std::vector<std::uint8_t> op;
  std::vector<double> cycle_done_s;  // mix: completed five-request cycles
  std::vector<float> cycle_us;
  std::vector<float> traced_us;  // latency while a span is recorded per request
  std::size_t sent = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Sample> samples;
};

int cmd_load(const Args& args) {
  const std::string mix = args.required("--mix");
  const std::uint64_t seed = args.num("--seed", 42);
  const double seconds = args.real("--seconds", 10.0);
  const std::size_t clients = args.num("--clients", 2);
  constexpr double warmup = 1.0;
  constexpr std::size_t windows = 5;
  const std::uint16_t port = static_cast<std::uint16_t>(args.num("--port", 0));
  const std::string daemon = args.required("--daemon-pid");
  const std::string trace_out = args.str("--trace-out");
  const bool traced = !trace_out.empty();

  // The same fixture in-process: request ids, and the reference for the
  // byte-for-byte check of sampled responses.
  const serve::ServedDataset ds = serve::ServedDataset::load(args.required("--fixture"));
  const Catalog catalog = catalog_of(ds);
  std::vector<std::vector<serve::Request>> streams;
  for (std::size_t c = 0; c < clients; ++c) {
    streams.push_back(make_stream(catalog, mix, seed, c, stream_cycles(mix)));
  }

  // Phases: 0 warm-up, 1 measured (untraced), 2 measured with a span per
  // request (traced runs only), 3 stop.
  std::atomic<int> phase{0};
  Clock::time_point measure_start;
  const Clock::time_point epoch = Clock::now();
  std::vector<ClientLog> logs(clients);
  std::vector<SpanLog> span_logs;
  for (std::size_t c = 0; c < clients; ++c) {
    span_logs.emplace_back(epoch, static_cast<std::uint32_t>(c + 1), (c + 1) << 40);
  }
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      const auto& stream = streams[c];
      serve::Client client;
      try {
        client.connect("127.0.0.1", port);
      } catch (const std::exception& e) {
        ++log.failed;
        log.errors.push_back(std::string("connect: ") + e.what());
        return;
      }
      std::size_t i = 0;
      double cycle_start = -1.0;
      for (int p = phase.load(); p != 3; p = phase.load(), ++i) {
        const serve::Request& request = stream[i % stream.size()];
        const bool span = p == 2;
        std::optional<SpanLog::Scope> scope;
        if (span) {
          scope.emplace(span_logs[c], "serve.client." + std::string(serve::op_name(request.op)));
        }
        const Clock::time_point t0 = Clock::now();
        ++log.sent;
        serve::Response response;
        bool ok = true;
        try {
          response = client.call(request);
          if (response.status != serve::Status::kOk) {
            ok = false;
            if (log.errors.size() < 8) {
              log.errors.push_back(std::string(serve::status_name(response.status)) + ": " +
                                   response.error);
            }
          }
        } catch (const std::exception& e) {
          ok = false;
          if (log.errors.size() < 8) log.errors.push_back(std::string("transport: ") + e.what());
          client.close();
          try {
            client.connect("127.0.0.1", port);
          } catch (const std::exception&) {
            ++log.failed;
            return;
          }
        }
        const Clock::time_point t1 = Clock::now();
        scope.reset();
        if (!ok) ++log.failed;
        if (ok && (i < 40 || i % 997 == 0) && log.samples.size() < 200) {
          log.samples.push_back({i % stream.size(), serve::encode_response(request.op, response)});
        }
        if (p == 0) continue;
        const float lat = std::chrono::duration<float, std::micro>(t1 - t0).count();
        if (p == 2) {
          log.traced_us.push_back(lat);
          continue;
        }
        const double done = std::chrono::duration<double>(t1 - measure_start).count();
        log.done_s.push_back(done);
        log.lat_us.push_back(lat);
        log.op.push_back(static_cast<std::uint8_t>(request.op));
        if (mix == "mix") {
          if (i % kMixCycle == 0) {
            cycle_start = std::chrono::duration<double>(t0 - measure_start).count();
          }
          if (i % kMixCycle == kMixCycle - 1 && cycle_start >= 0.0) {
            log.cycle_done_s.push_back(done);
            log.cycle_us.push_back(
                static_cast<float>((done - cycle_start) * 1e6));
          }
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
  // Untraced measured phase, split into windows: the daemon's CPU is read
  // at every boundary so a burst of host steal spoils one window only.
  const double untraced_s = traced ? seconds / 2.0 : seconds;
  std::vector<ProcCpu> cpu_marks;
  std::vector<double> marks;
  measure_start = Clock::now();
  cpu_marks.push_back(proc_cpu(daemon));
  marks.push_back(0.0);
  phase.store(1);
  for (std::size_t w = 1; w <= windows; ++w) {
    std::this_thread::sleep_until(measure_start + std::chrono::duration_cast<Clock::duration>(
                                                      std::chrono::duration<double>(
                                                          untraced_s * static_cast<double>(w) /
                                                          static_cast<double>(windows))));
    cpu_marks.push_back(proc_cpu(daemon));
    marks.push_back(since(measure_start));
  }
  double traced_end = 0.0;
  if (traced) {
    phase.store(2);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds - untraced_s));
    traced_end = since(measure_start);
  }
  phase.store(3);
  for (std::thread& t : threads) t.join();

  // Per-window operations, latencies and daemon CPU.
  const bool cycles = mix == "mix";
  std::vector<double> all_lat;
  std::vector<double> traced_lat;
  std::vector<std::size_t> window_ops(windows, 0);
  std::vector<std::vector<double>> window_lat(windows);
  std::map<std::string, std::vector<double>> per_op;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  for (const ClientLog& log : logs) {
    attempted += log.sent;
    failed += log.failed;
    errors.insert(errors.end(), log.errors.begin(), log.errors.end());
    traced_lat.insert(traced_lat.end(), log.traced_us.begin(), log.traced_us.end());
    const auto& done = cycles ? log.cycle_done_s : log.done_s;
    for (std::size_t k = 0; k < done.size(); ++k) {
      const double lat = cycles ? log.cycle_us[k] : log.lat_us[k];
      if (done[k] > marks.back()) continue;
      std::size_t w = 0;
      while (w + 1 < windows && done[k] > marks[w + 1]) ++w;
      ++window_ops[w];
      window_lat[w].push_back(lat);
      all_lat.push_back(lat);
    }
    for (std::size_t k = 0; k < log.lat_us.size(); ++k) {
      if (log.done_s[k] > marks.back()) continue;
      per_op[std::string(serve::op_name(static_cast<serve::Op>(log.op[k])))].push_back(
          log.lat_us[k]);
    }
  }
  std::sort(all_lat.begin(), all_lat.end());
  std::sort(traced_lat.begin(), traced_lat.end());
  std::vector<double> window_p50_ms;
  std::vector<double> window_cpu_ms_per_op;
  double user_s = 0.0;
  double sys_s = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    const double du = cpu_marks[w + 1].user_s - cpu_marks[w].user_s;
    const double ds_ = cpu_marks[w + 1].sys_s - cpu_marks[w].sys_s;
    user_s += du;
    sys_s += ds_;
    window_cpu_ms_per_op.push_back(
        window_ops[w] ? (du + ds_) * 1e3 / static_cast<double>(window_ops[w]) : 0.0);
    window_p50_ms.push_back(median(window_lat[w]) / 1e3);
  }

  // Byte-for-byte check of the sampled responses against in-process
  // ServedDataset::handle over the same fixture.
  std::size_t checked = 0;
  bool tamper = args.has("--tamper-response");
  for (std::size_t c = 0; c < clients; ++c) {
    for (Sample& sample : logs[c].samples) {
      const serve::Request& request = streams[c][sample.index];
      if (tamper && !sample.encoded.empty()) {
        sample.encoded[sample.encoded.size() / 2] ^= 0x01;
        tamper = false;
      }
      ++checked;
      if (serve::encode_response(request.op, ds.handle(request)) != sample.encoded) {
        ++failed;
        if (errors.size() < 16) {
          errors.push_back("response to " + std::string(serve::op_name(request.op)) +
                           " #" + std::to_string(sample.index) +
                           " differs from in-process ServedDataset::handle");
        }
      }
    }
  }

  Json ops = Json::object();
  for (const auto& [name, lat] : per_op) {
    Json o = Json::object();
    o.set("count", lat.size());
    o.set("p50_ms", median(lat) / 1e3);
    ops.set(name, o);
  }
  Json result = Json::object();
  result.set("ops", all_lat.size());
  result.set("measured_s", marks.back());
  result.set("p50_ms", percentile(all_lat, 0.5) / 1e3);
  result.set("p90_ms", percentile(all_lat, 0.9) / 1e3);
  result.set("beyond_p90", all_lat.size() - static_cast<std::size_t>(
                                                 0.9 * static_cast<double>(all_lat.size())));
  result.set("ops_per_s", static_cast<double>(all_lat.size()) / marks.back());
  result.set("window_p50_ms", json_array(window_p50_ms));
  result.set("window_cpu_ms_per_op", json_array(window_cpu_ms_per_op));
  result.set("daemon_user_s", user_s);
  result.set("daemon_sys_s", sys_s);
  result.set("per_op", ops);
  result.set("checked", checked);
  result.set("attempted", attempted + checked);
  result.set("failed", failed);
  result.set("errors", json_strings(errors));
  if (traced) {
    result.set("traced_ops", traced_lat.size());
    result.set("traced_p50_ms", percentile(traced_lat, 0.5) / 1e3);
    std::vector<const SpanLog*> span_ptrs;
    for (const SpanLog& log : span_logs) span_ptrs.push_back(&log);
    write_trace(span_ptrs, "perfbench serve-" + mix + " clients", traced_end * 1e3, trace_out);
  }
  emit(result);
  return 0;
}

/// In-process replay of the serve workloads' request streams, one span
/// per protocol step and per ServedDataset::handle.
int cmd_replay(const Args& args) {
  const fs::path fixture = args.required("--fixture");
  const std::uint64_t seed = args.num("--seed", 42);
  std::vector<std::string> errors;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  const Clock::time_point epoch = Clock::now();
  SpanLog log(epoch, static_cast<std::uint32_t>(args.num("--trace-id", 1)), 1);
  // The daemon's always-on instrumentation, as patchdbd installs it.
  obs::ObsSession session("patchdbd");
  serve::ServedDataset ds = [&] {
    auto root = log.scope("serve.startup");
    store::LoadedPatchDb loaded = [&] {
      auto span = log.scope("store.load_patchdb");
      return store::load_patchdb(fixture);
    }();
    auto span = log.scope("serve.precompute");
    return serve::ServedDataset::from_components(
        std::move(loaded.nvd_security), std::move(loaded.wild_security),
        std::move(loaded.nonsecurity), std::move(loaded.synthetic));
  }();
  const Catalog catalog = catalog_of(ds);

  const std::uint64_t knn_before = session.registry().snapshot().counter("query.knn");
  const std::uint64_t cells_before = session.registry().snapshot().counter("query.knn.cells");
  std::vector<double> codec_us;
  for (const std::string mix : {"point", "mix"}) {
    const std::vector<serve::Request> stream =
        make_stream(catalog, mix, seed, 0, mix == "point" ? 2000 : 200);
    auto root = log.scope("serve.replay." + mix);
    for (const serve::Request& request : stream) {
      ++attempted;
      const std::string op(serve::op_name(request.op));
      auto req_span = log.scope("serve.request." + op);
      const std::int64_t c0 = log.now_ns();
      std::string body;
      serve::Request decoded;
      {
        auto span = log.scope("serve.codec.request");
        body = serve::encode_request(request);
        decoded = serve::decode_request(body);
      }
      const std::int64_t c1 = log.now_ns();
      serve::Response response;
      {
        auto span = log.scope("serve.handle." + op);
        response = ds.handle(decoded);
      }
      const std::int64_t c2 = log.now_ns();
      {
        auto span = log.scope("serve.codec.response");
        const std::string encoded = serve::encode_response(request.op, response);
        serve::decode_response(request.op, encoded);
      }
      if (mix == "point") {
        codec_us.push_back(static_cast<double>((c1 - c0) + (log.now_ns() - c2)) / 1e3);
      }
      if (response.status != serve::Status::kOk) {
        ++failed;
        if (errors.size() < 8) errors.push_back(op + ": " + response.error);
      }
      if (request.op == serve::Op::kAnalyze) {
        const diff::Patch patch = diff::parse_patch(request.analyze.diff_text);
        auto span = log.scope("analysis.analyze_patch");
        analysis::analyze_patch(patch);
      }
    }
  }
  const obs::MetricsSnapshot counters = session.registry().snapshot();

  Json handle = Json::object();
  for (const char* op : {"lookup", "features", "nearest", "stats", "analyze"}) {
    handle.set(op, median(log.all_us("serve.handle." + std::string(op))));
  }
  Json result = Json::object();
  result.set("load_s", log.last_s("store.load_patchdb"));
  result.set("precompute_s", log.last_s("serve.precompute"));
  result.set("handle_us", handle);
  result.set("codec_us", median(codec_us));
  result.set("analyze_us", median(log.all_us("analysis.analyze_patch")));
  if (counters.counters.count("query.knn") && counters.counters.count("query.knn.cells")) {
    const double queries = static_cast<double>(counters.counter("query.knn") - knn_before);
    const double cells = static_cast<double>(counters.counter("query.knn.cells") - cells_before);
    if (queries > 0) result.set("knn_rows_per_query", cells / queries);
  }
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("errors", json_strings(errors));
  print_self_times({&log});
  const std::string trace_out = args.str("--trace-out");
  if (!trace_out.empty()) {
    write_trace({&log}, "perfbench serve replay", since(epoch) * 1e3, trace_out);
  }
  emit(result);
  return 0;
}

/// Digest of the inputs a seed generates: the build-wide world's commits
/// and a serve-mix request stream drawn over them.
int cmd_inputs(const Args& args) {
  const std::uint64_t seed = args.num("--seed", 42);
  const corpus::World world = corpus::build_world(build_options("wide", seed).world);
  std::uint64_t world_hash = fnv1a("world");
  Catalog catalog;
  for (const auto* set : {&world.nvd_security, &world.wild}) {
    for (const corpus::CommitRecord& r : *set) {
      world_hash = fnv1a(r.patch.commit, world_hash);
      catalog.ids.push_back(r.patch.commit);
    }
  }
  catalog.natural = world.nvd_security.size();
  catalog.diff_text = [&world](std::size_t i) {
    return diff::render_patch(world.nvd_security[i].patch);
  };
  std::uint64_t stream_hash = fnv1a("stream");
  for (const serve::Request& r : make_stream(catalog, "mix", seed, 0, 64)) {
    stream_hash = fnv1a(serve::encode_request(r), stream_hash);
  }
  Json result = Json::object();
  result.set("world", hex(world_hash));
  result.set("requests", hex(stream_hash));
  emit(result);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_driver build|traced-build|load|replay|inputs"
                 " [--flag value]...\n");
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv);
  try {
    if (command == "build") return cmd_build(args);
    if (command == "traced-build") return cmd_traced_build(args);
    if (command == "load") return cmd_load(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "inputs") return cmd_inputs(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_driver: unknown command %s\n", command.c_str());
  return 2;
}
