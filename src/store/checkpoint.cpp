#include "store/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "store/csv.h"
#include "store/io.h"
#include "util/hash.h"

namespace patchdb::store {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kVersionLine = "#patchdb.checkpoint.v4";

void append_u64(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
  out += '|';
}

void append_double(std::string& out, double value) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  append_u64(out, bits);
}

[[noreturn]] void corrupt(const std::string& why) {
  throw std::runtime_error("store: checkpoint: " + why);
}

std::size_t parse_count(const std::vector<std::string>& row, std::size_t index,
                        const char* what) {
  if (index >= row.size()) corrupt(std::string("missing ") + what);
  return static_cast<std::size_t>(
      parse_int_field(row[index], static_cast<long long>(1) << 62, what));
}

}  // namespace

std::string_view checkpoint_version_line() { return kVersionLine; }

fs::path checkpoint_path(const fs::path& dir) { return dir / "checkpoint.csv"; }

std::uint64_t build_fingerprint(const core::BuildOptions& options) {
  // Everything the simulated world depends on. Synthesis and
  // round-count knobs are excluded on purpose: they run after (or
  // extend) the checkpointed rounds without invalidating them.
  std::string canon;
  const corpus::WorldConfig& w = options.world;
  append_u64(canon, w.repos);
  append_u64(canon, w.nvd_security);
  append_u64(canon, w.wild_pool);
  append_double(canon, w.wild_security_rate);
  append_double(canon, w.entry_missing_link_prob);
  append_double(canon, w.dead_link_prob);
  append_double(canon, w.wrong_link_prob);
  append_u64(canon, w.keep_nvd_snapshots ? 1 : 0);
  append_u64(canon, w.keep_wild_snapshots ? 1 : 0);
  append_u64(canon, w.seed);
  return util::fnv1a64(canon);
}

void write_checkpoint(const fs::path& dir, const core::LoopCheckpoint& checkpoint,
                      std::uint64_t fingerprint) {
  fs::create_directories(dir);
  std::string body = "fingerprint," + util::to_hex(fingerprint) + '\n';
  body += "rounds_run," + std::to_string(checkpoint.rounds_run) + '\n';
  body += "finished,";
  body += checkpoint.finished ? '1' : '0';
  body += '\n';
  body += "effort," + std::to_string(checkpoint.oracle_effort) + '\n';
  for (const core::RoundStats& r : checkpoint.history) {
    body += "round," + std::to_string(r.round) + ',' +
            std::to_string(r.pool_size) + ',' + std::to_string(r.candidates) +
            ',' + std::to_string(r.verified_security) + '\n';
  }
  for (const std::string& commit : checkpoint.wild_security) {
    body += "security," + csv_escape(commit) + '\n';
  }
  for (const std::string& commit : checkpoint.nonsecurity) {
    body += "nonsecurity," + csv_escape(commit) + '\n';
  }
  for (const std::string& commit : checkpoint.pool) {
    body += "pool," + csv_escape(commit) + '\n';
  }
  atomic_write_file(checkpoint_path(dir), seal(kVersionLine, body));
}

core::LoopCheckpoint read_checkpoint(const fs::path& dir,
                                     std::uint64_t expected_fingerprint) {
  const std::string sealed = read_file(checkpoint_path(dir));
  const std::string_view body = open_sealed(sealed, kVersionLine, "checkpoint.csv");

  core::LoopCheckpoint cp;
  bool saw_fingerprint = false;
  bool saw_rounds = false;
  for (const auto& row : csv_parse(body)) {
    if (row.empty() || row[0].empty()) corrupt("empty row");
    const std::string& tag = row[0];
    if (tag == "fingerprint") {
      std::uint64_t recorded = 0;
      if (row.size() != 2 || !util::parse_hex(row[1], recorded)) {
        corrupt("malformed fingerprint");
      }
      if (expected_fingerprint != kAnyFingerprint &&
          recorded != expected_fingerprint) {
        corrupt("was written by a build with different options "
                "(world/seed mismatch); refusing to resume");
      }
      saw_fingerprint = true;
    } else if (tag == "rounds_run") {
      cp.rounds_run = parse_count(row, 1, "rounds_run");
      saw_rounds = true;
    } else if (tag == "finished") {
      if (row.size() != 2 || (row[1] != "0" && row[1] != "1")) {
        corrupt("malformed finished flag");
      }
      cp.finished = row[1] == "1";
    } else if (tag == "effort") {
      cp.oracle_effort = parse_count(row, 1, "effort");
    } else if (tag == "round") {
      if (row.size() != 5) corrupt("malformed round row");
      core::RoundStats stats;
      stats.round = parse_count(row, 1, "round");
      stats.pool_size = parse_count(row, 2, "pool_size");
      stats.candidates = parse_count(row, 3, "candidates");
      stats.verified_security = parse_count(row, 4, "verified_security");
      stats.ratio = stats.candidates == 0
                        ? 0.0
                        : static_cast<double>(stats.verified_security) /
                              static_cast<double>(stats.candidates);
      cp.history.push_back(stats);
    } else if (tag == "security" || tag == "nonsecurity" || tag == "pool") {
      if (row.size() != 2 || row[1].empty()) corrupt("malformed commit row");
      if (tag == "security") {
        cp.wild_security.push_back(row[1]);
      } else if (tag == "nonsecurity") {
        cp.nonsecurity.push_back(row[1]);
      } else {
        cp.pool.push_back(row[1]);
      }
    } else {
      corrupt("unknown row tag '" + tag + "'");
    }
  }
  if (!saw_fingerprint || !saw_rounds) corrupt("missing required rows");
  if (cp.history.size() != cp.rounds_run) {
    corrupt("round history does not match rounds_run");
  }
  return cp;
}

core::PatchDb build_with_checkpoints(const core::BuildOptions& options) {
  if (options.checkpoint_dir.empty()) return core::build_patchdb(options);
  const fs::path dir = options.checkpoint_dir;
  fs::create_directories(dir);
  const std::uint64_t fingerprint = build_fingerprint(options);

  core::BuildHooks hooks;
  hooks.before_rounds = [&options, &dir, fingerprint](
                            core::AugmentationLoop& loop,
                            corpus::World& world) -> bool {
    if (!options.resume) return false;
    if (!fs::exists(checkpoint_path(dir))) {
      std::fprintf(stderr, "store: no checkpoint in %s, starting fresh\n",
                   dir.string().c_str());
      return false;
    }
    const core::LoopCheckpoint cp = read_checkpoint(dir, fingerprint);
    core::CommitIndex by_commit;
    by_commit.reserve(world.wild.size());
    for (const corpus::CommitRecord& r : world.wild) {
      by_commit.emplace(r.patch.commit, &r);
    }
    loop.restore(cp, by_commit);
    world.oracle.set_effort(cp.oracle_effort);
    PATCHDB_COUNTER_ADD("store.resumes", 1);
    std::fprintf(stderr,
                 "store: resumed from %s at round %zu (%zu wild finds, %zu "
                 "pool remaining)\n",
                 checkpoint_path(dir).string().c_str(), cp.rounds_run,
                 cp.wild_security.size(), cp.pool.size());
    return true;
  };
  hooks.after_round = [&dir, fingerprint](const core::AugmentationLoop& loop,
                                          const core::RoundStats&) {
    write_checkpoint(dir, loop.checkpoint(), fingerprint);
  };
  return core::build_patchdb(options, hooks);
}

}  // namespace patchdb::store
