#include "store/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/csv.h"
#include "store/io.h"
#include "util/hash.h"

namespace patchdb::store {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kVersionLine = "#patchdb.checkpoint.v5";

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

void write_checkpoint(const fs::path& dir, const Verdicts& verdicts,
                      std::uint64_t fingerprint) {
  fs::create_directories(dir);
  std::string body = "fingerprint," + util::to_hex(fingerprint) + '\n';
  for (const std::string& commit : verdicts.security) {
    body += "security," + csv_escape(commit) + '\n';
  }
  for (const std::string& commit : verdicts.nonsecurity) {
    body += "nonsecurity," + csv_escape(commit) + '\n';
  }
  atomic_write_file(checkpoint_path(dir), seal(kVersionLine, body));
}

Verdicts read_checkpoint(const fs::path& dir, std::uint64_t expected_fingerprint) {
  const std::string sealed = read_file(checkpoint_path(dir));
  const std::string_view body = open_sealed(sealed, kVersionLine, "checkpoint.csv");

  Verdicts verdicts;
  bool saw_fingerprint = false;
  const std::vector<std::vector<std::string>> rows = csv_parse(body);
  // A commit has one verdict: one row, in either kind.
  std::unordered_map<std::string_view, std::size_t> first_row;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::vector<std::string>& row = rows[i];
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
    } else if (tag == "security" || tag == "nonsecurity") {
      if (row.size() != 2 || row[1].empty()) corrupt("malformed commit row");
      // Row numbers count the version line, as the manifest's do.
      if (const auto [first, fresh] = first_row.emplace(row[1], i + 2); !fresh) {
        corrupt("row " + std::to_string(i + 2) + ": duplicate commit " + row[1] +
                " (first listed at row " + std::to_string(first->second) + ")");
      }
      (tag == "security" ? verdicts.security : verdicts.nonsecurity)
          .push_back(row[1]);
    } else {
      corrupt("unknown row tag '" + tag + "'");
    }
  }
  if (!saw_fingerprint) corrupt("missing fingerprint row");
  return verdicts;
}

core::PatchDb build_with_checkpoints(const core::BuildOptions& options,
                                     const fs::path& dir, bool resume) {
  if (dir.empty()) return core::build_patchdb(options);
  fs::create_directories(dir);
  const std::uint64_t fingerprint = build_fingerprint(options);
  // Verdicts read back on resume. The replayed rounds reach exactly
  // these, so a round that holds no more rewrites nothing: a resume
  // killed mid-replay, or run with fewer rounds, keeps every one.
  std::size_t recorded = 0;

  core::BuildHooks hooks;
  hooks.before_rounds = [&](core::AugmentationLoop&, corpus::World& world) {
    if (!resume) return;
    if (!fs::exists(checkpoint_path(dir))) {
      std::fprintf(stderr, "store: no checkpoint in %s, starting fresh\n",
                   dir.string().c_str());
      return;
    }
    PATCHDB_TRACE_SPAN("store.checkpoint");
    const Verdicts verdicts = read_checkpoint(dir, fingerprint);
    for (const bool is_security : {true, false}) {
      for (const std::string& commit :
           is_security ? verdicts.security : verdicts.nonsecurity) {
        if (!world.oracle.known(commit)) {
          corrupt("names unknown commit " + commit);
        }
        world.oracle.record_verdict(commit, is_security);
      }
    }
    recorded = verdicts.security.size() + verdicts.nonsecurity.size();
    PATCHDB_COUNTER_ADD("store.resumes", 1);
    std::fprintf(stderr,
                 "store: resumed from %s with %zu recorded verdicts (%zu wild "
                 "finds)\n",
                 checkpoint_path(dir).string().c_str(), recorded,
                 verdicts.security.size());
  };
  hooks.after_round = [&](const core::AugmentationLoop& loop,
                          const core::RoundStats&) {
    PATCHDB_TRACE_SPAN("store.checkpoint");
    Verdicts verdicts;
    for (const corpus::CommitRecord* r : loop.wild_security()) {
      verdicts.security.push_back(r->patch.commit);
    }
    for (const corpus::CommitRecord* r : loop.nonsecurity()) {
      verdicts.nonsecurity.push_back(r->patch.commit);
    }
    if (verdicts.security.size() + verdicts.nonsecurity.size() <= recorded) {
      return;
    }
    write_checkpoint(dir, verdicts, fingerprint);
  };
  return core::build_patchdb(options, hooks);
}

}  // namespace patchdb::store
