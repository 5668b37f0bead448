// Crash-safety tests for the checkpointed build: kill-point sweep with
// fault injection (a build interrupted at any round boundary and resumed
// exports bit-identically), torn-write detection, fingerprint guards,
// and fsck corruption coverage.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/patchdb.h"
#include "diff/render.h"
#include "obs/metrics.h"
#include "store/checkpoint.h"
#include "store/export.h"
#include "store/fsck.h"
#include "store/io.h"

namespace patchdb {
namespace {

namespace fs = std::filesystem;

core::BuildOptions small_options() {
  core::BuildOptions options;
  options.world.repos = 4;
  options.world.nvd_security = 20;
  options.world.wild_pool = 300;
  options.world.seed = 77;
  options.augment.max_rounds = 3;
  options.synthesis.max_per_patch = 1;
  return options;
}

/// Every file under `root`, path -> bytes, for bit-identical comparison.
std::map<std::string, std::string> dir_contents(const fs::path& root) {
  std::map<std::string, std::string> out;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    out[fs::relative(entry.path(), root).generic_string()] =
        store::read_file(entry.path());
  }
  return out;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("patchdb_ckpt_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    store::clear_fault_plan();
  }
  void TearDown() override {
    store::clear_fault_plan();
    fs::remove_all(root_);
  }

  fs::path dir(const std::string& name) const { return root_ / name; }

  fs::path root_;
};

TEST_F(CheckpointTest, FingerprintCoversWorldNotRoundKnobs) {
  const core::BuildOptions a = small_options();
  core::BuildOptions b = small_options();
  EXPECT_EQ(store::build_fingerprint(a), store::build_fingerprint(b));

  b.world.seed = 78;
  EXPECT_NE(store::build_fingerprint(a), store::build_fingerprint(b));

  // Round-count and synthesis knobs extend a checkpointed run without
  // invalidating it, so they stay out of the fingerprint.
  b = small_options();
  b.augment.max_rounds = 9;
  b.synthesis.max_per_patch = 5;
  EXPECT_EQ(store::build_fingerprint(a), store::build_fingerprint(b));
}

TEST_F(CheckpointTest, CheckpointWriteReadRoundTrip) {
  core::LoopCheckpoint cp;
  cp.rounds_run = 2;
  cp.finished = false;
  cp.oracle_effort = 17;
  for (std::size_t r = 1; r <= 2; ++r) {
    core::RoundStats stats;
    stats.round = r;
    stats.pool_size = 100 - r;
    stats.candidates = 10 + r;
    stats.verified_security = 4 + r;
    stats.ratio = static_cast<double>(stats.verified_security) /
                  static_cast<double>(stats.candidates);
    cp.history.push_back(stats);
  }
  cp.wild_security = {"aabb01", "aabb02"};
  cp.nonsecurity = {"ccdd01"};
  cp.pool = {"eeff03", "eeff01", "eeff02"};  // order must survive verbatim

  store::write_checkpoint(dir("cp"), cp, 0x1234u);
  const core::LoopCheckpoint back = store::read_checkpoint(dir("cp"), 0x1234u);
  EXPECT_EQ(back.rounds_run, cp.rounds_run);
  EXPECT_EQ(back.finished, cp.finished);
  EXPECT_EQ(back.oracle_effort, cp.oracle_effort);
  ASSERT_EQ(back.history.size(), cp.history.size());
  for (std::size_t i = 0; i < cp.history.size(); ++i) {
    EXPECT_EQ(back.history[i].round, cp.history[i].round);
    EXPECT_EQ(back.history[i].pool_size, cp.history[i].pool_size);
    EXPECT_EQ(back.history[i].candidates, cp.history[i].candidates);
    EXPECT_EQ(back.history[i].verified_security, cp.history[i].verified_security);
    EXPECT_DOUBLE_EQ(back.history[i].ratio, cp.history[i].ratio);
  }
  EXPECT_EQ(back.wild_security, cp.wild_security);
  EXPECT_EQ(back.nonsecurity, cp.nonsecurity);
  EXPECT_EQ(back.pool, cp.pool);

  // Wrong fingerprint refuses; kAnyFingerprint (fsck) skips the check.
  EXPECT_THROW(store::read_checkpoint(dir("cp"), 0x9999u), std::runtime_error);
  EXPECT_NO_THROW(store::read_checkpoint(dir("cp"), store::kAnyFingerprint));
}

TEST_F(CheckpointTest, CheckpointedBuildMatchesPlainBuild) {
  core::BuildOptions options = small_options();
  const core::PatchDb plain = core::build_patchdb(options);
  store::export_patchdb(plain, dir("plain"));

  options.checkpoint_dir = dir("ckpt");
  const core::PatchDb checkpointed = store::build_with_checkpoints(options);
  store::export_patchdb(checkpointed, dir("checkpointed"));

  EXPECT_TRUE(fs::exists(store::checkpoint_path(dir("ckpt"))));
  EXPECT_EQ(dir_contents(dir("plain")), dir_contents(dir("checkpointed")));
}

// The acceptance test: interrupt the build at EVERY round boundary (the
// Nth checkpoint write fails as if the process died there), resume with
// --resume semantics, and require the resumed export to be bit-identical
// to an uninterrupted run's.
TEST_F(CheckpointTest, KillPointSweepResumesBitIdentical) {
  core::BuildOptions options = small_options();
  options.checkpoint_dir = dir("baseline_ckpt");
  store::clear_fault_plan();  // reset the write counter
  const core::PatchDb baseline = store::build_with_checkpoints(options);
  const std::size_t round_writes = store::fault_write_count();
  ASSERT_GE(round_writes, 2u) << "world too small to exercise kill points";
  store::export_patchdb(baseline, dir("baseline_out"));
  const std::map<std::string, std::string> want = dir_contents(dir("baseline_out"));

  for (std::size_t k = 0; k < round_writes; ++k) {
    const std::string tag = "kill" + std::to_string(k);
    options.checkpoint_dir = dir(tag + "_ckpt");
    options.resume = false;

    store::FaultPlan plan;
    plan.fail_write = k;
    store::set_fault_plan(plan);
    EXPECT_THROW(store::build_with_checkpoints(options), store::FaultInjected)
        << "kill point " << k;
    store::clear_fault_plan();

    options.resume = true;
    const core::PatchDb resumed = store::build_with_checkpoints(options);
    store::export_patchdb(resumed, dir(tag + "_out"));
    EXPECT_EQ(dir_contents(dir(tag + "_out")), want)
        << "resume after kill point " << k << " diverged";
  }
}

// A crash mid-export must never publish a manifest describing patches
// that are not there: the manifest is written last, so re-running the
// export heals the directory. Every write is a kill point, both as a
// crash before its rename and as a torn write.
TEST_F(CheckpointTest, KilledExportLeavesNoManifestAndRetrySucceeds) {
  const core::PatchDb db = core::build_patchdb(small_options());
  store::clear_fault_plan();
  store::export_patchdb(db, dir("good"));
  const std::size_t export_writes = store::fault_write_count();
  ASSERT_EQ(export_writes, std::size(store::kComponents) + 2);  // + features, manifest
  const std::map<std::string, std::string> want = dir_contents(dir("good"));

  for (const bool truncate : {false, true}) {
    for (std::size_t k = 0; k < export_writes; ++k) {
      const std::string tag = "kill" + std::to_string(k) + (truncate ? "_torn" : "");
      const fs::path killed = dir(tag);
      store::FaultPlan plan;
      plan.fail_write = k;
      plan.truncate = truncate;
      store::set_fault_plan(plan);
      EXPECT_THROW(store::export_patchdb(db, killed), store::FaultInjected) << tag;
      store::clear_fault_plan();
      // No manifest lands, except the torn last write's own half, which
      // fails its seal.
      const bool torn_manifest = truncate && k + 1 == export_writes;
      EXPECT_EQ(fs::exists(killed / "manifest.csv"), torn_manifest) << tag;
      EXPECT_FALSE(store::fsck(killed).ok()) << tag;
      EXPECT_THROW(store::load_patchdb(killed), std::runtime_error) << tag;

      store::export_patchdb(db, killed);
      EXPECT_EQ(dir_contents(killed), want) << "retry after " << tag;
    }
  }
}

TEST_F(CheckpointTest, TornCheckpointRefusesResumeAndFsckFlagsIt) {
  core::BuildOptions options = small_options();
  options.checkpoint_dir = dir("ckpt");

  // The second checkpoint write tears: half the new content lands at the
  // final path, as a non-atomic writer would leave it after a crash.
  store::FaultPlan plan;
  plan.fail_write = 1;
  plan.truncate = true;
  store::set_fault_plan(plan);
  EXPECT_THROW(store::build_with_checkpoints(options), store::FaultInjected);
  store::clear_fault_plan();
  ASSERT_TRUE(fs::exists(store::checkpoint_path(dir("ckpt"))));

  options.resume = true;
  EXPECT_THROW(store::build_with_checkpoints(options), std::runtime_error);

  const store::FsckReport report = store::fsck(dir("ckpt"));
  EXPECT_FALSE(report.ok());
}

// An older checkpoint carries an older version line: v1 hashed the link
// engine's settings into the fingerprint, v2 the world options that are
// now constants, and v3 the world's commit rates. Each must be refused
// as an unsupported version, not misread as "written by a build with
// different options".
TEST_F(CheckpointTest, V1CheckpointRefusedByResumeAndFlaggedByFsck) {
  for (const std::string old : {"#patchdb.checkpoint.v1", "#patchdb.checkpoint.v2",
                                "#patchdb.checkpoint.v3"}) {
    core::BuildOptions options = small_options();
    options.checkpoint_dir = dir("ckpt");
    store::build_with_checkpoints(options);
    const fs::path path = store::checkpoint_path(dir("ckpt"));
    std::string body(
        store::strip_checksum_trailer(store::read_file(path), "checkpoint.csv"));
    const std::string current = std::string(store::checkpoint_version_line());
    ASSERT_EQ(body.rfind(current + "\n", 0), 0u);
    body.replace(0, current.size(), old);
    std::ofstream(path, std::ios::binary)
        << store::with_checksum_trailer(std::move(body));

    options.resume = true;
    try {
      store::build_with_checkpoints(options);
      ADD_FAILURE() << "resumed from a checkpoint headed " << old;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version"),
                std::string::npos)
          << e.what();
    }

    const store::FsckReport report = store::fsck(dir("ckpt"));
    ASSERT_FALSE(report.ok()) << old;
    EXPECT_NE(report.errors[0].find("unsupported version"), std::string::npos)
        << report.errors[0];
  }
}

TEST_F(CheckpointTest, ResumeWithoutCheckpointStartsFresh) {
  core::BuildOptions options = small_options();
  const core::PatchDb plain = core::build_patchdb(options);
  store::export_patchdb(plain, dir("plain"));

  options.checkpoint_dir = dir("empty_ckpt");
  options.resume = true;  // nothing to resume from
  const core::PatchDb fresh = store::build_with_checkpoints(options);
  store::export_patchdb(fresh, dir("fresh"));
  EXPECT_EQ(dir_contents(dir("plain")), dir_contents(dir("fresh")));
}

// A --resume build says on stderr where it started: fresh when the
// directory holds no checkpoint, else the checkpoint file and its round.
TEST_F(CheckpointTest, ResumeSaysWhereItStartedOnStderr) {
  core::BuildOptions options = small_options();
  options.checkpoint_dir = dir("ckpt");
  options.resume = true;
  options.augment.max_rounds = 1;
  ::testing::internal::CaptureStderr();
  store::build_with_checkpoints(options);
  const std::string fresh = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(fresh.find("store: no checkpoint in " + dir("ckpt").string() +
                       ", starting fresh\n"),
            std::string::npos)
      << fresh;

  options.augment.max_rounds = 2;
  ::testing::internal::CaptureStderr();
  store::build_with_checkpoints(options);
  const std::string resumed = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(resumed.find("store: resumed from " +
                         store::checkpoint_path(dir("ckpt")).string() +
                         " at round 1 ("),
            std::string::npos)
      << resumed;
}

TEST_F(CheckpointTest, ResumeRefusesCheckpointFromDifferentBuild) {
  core::BuildOptions options = small_options();
  options.checkpoint_dir = dir("ckpt");
  store::build_with_checkpoints(options);
  ASSERT_TRUE(fs::exists(store::checkpoint_path(dir("ckpt"))));

  options.resume = true;
  options.world.seed = 78;  // different world: its commits don't exist here
  EXPECT_THROW(store::build_with_checkpoints(options), std::runtime_error);
}

TEST_F(CheckpointTest, FsckAcceptsCleanDatasetAndCheckpoint) {
  core::BuildOptions options = small_options();
  options.checkpoint_dir = dir("ckpt");
  const core::PatchDb db = store::build_with_checkpoints(options);
  store::export_patchdb(db, dir("out"));

  const store::FsckReport dataset = store::fsck(dir("out"));
  EXPECT_TRUE(dataset.ok()) << (dataset.errors.empty() ? "" : dataset.errors[0]);
  EXPECT_EQ(dataset.manifest_rows, db.nvd_security.size() +
                                       db.wild_security.size() +
                                       db.nonsecurity.size() + db.synthetic.size());
  // manifest + features + one pack per component.
  EXPECT_EQ(dataset.files_checked, std::size(store::kComponents) + 2);
  EXPECT_GT(dataset.bytes_checked, 0u);

  const store::FsckReport checkpoint = store::fsck(dir("ckpt"));
  EXPECT_TRUE(checkpoint.ok())
      << (checkpoint.errors.empty() ? "" : checkpoint.errors[0]);

  fs::create_directories(dir("neither"));
  const store::FsckReport neither = store::fsck(dir("neither"));
  ASSERT_EQ(neither.errors.size(), 1u);
}

TEST_F(CheckpointTest, FsckFlagsFlippedBytesTruncationAndOrphans) {
  const core::PatchDb db = core::build_patchdb(small_options());
  store::export_patchdb(db, dir("out"));
  ASSERT_TRUE(store::fsck(dir("out")).ok());

  // Flip one bit inside the first patch of the nvd pack: its content
  // checksum catches it.
  const fs::path victim = store::pack_path(dir("out"), 0);
  const std::string original = store::read_file(victim);
  std::string corrupt = original;
  corrupt[original.find('\n') + 1 +
          diff::render_patch(db.nvd_security[0].patch).size() / 2] ^= 0x01;
  std::ofstream(victim, std::ios::binary) << corrupt;
  store::FsckReport report = store::fsck(dir("out"));
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.errors[0].find("checksum mismatch"), std::string::npos);
  std::ofstream(victim, std::ios::binary) << original;

  // Truncate the pack instead.
  std::ofstream(victim, std::ios::binary)
      << original.substr(0, original.size() / 2);
  report = store::fsck(dir("out"));
  EXPECT_FALSE(report.ok());
  std::ofstream(victim, std::ios::binary) << original;

  // Flip a byte in the sealed manifest: the trailer catches it.
  const fs::path manifest = dir("out") / "manifest.csv";
  const std::string good_manifest = store::read_file(manifest);
  std::string bad_manifest = good_manifest;
  bad_manifest[bad_manifest.size() / 3] ^= 0x01;
  std::ofstream(manifest, std::ios::binary) << bad_manifest;
  report = store::fsck(dir("out"));
  EXPECT_FALSE(report.ok());
  std::ofstream(manifest, std::ios::binary) << good_manifest;

  // A pack entry the manifest does not describe is an orphan.
  std::vector<std::string> wild;
  for (const corpus::CommitRecord& record : db.wild_security) {
    wild.push_back(diff::render_patch(record.patch));
  }
  wild.push_back("stray\n");
  store::write_pack(store::pack_path(dir("out"), 1), wild.size(),
                    [&wild](std::size_t k) { return wild[k]; });
  report = store::fsck(dir("out"));
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.errors[0].find("orphaned"), std::string::npos);
}

TEST_F(CheckpointTest, StoreCountersTrackWritesAndResumes) {
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* previous = obs::install_registry(&registry);

  core::BuildOptions options = small_options();
  options.checkpoint_dir = dir("ckpt");
  store::FaultPlan plan;
  plan.fail_write = 1;
  store::set_fault_plan(plan);
  EXPECT_THROW(store::build_with_checkpoints(options), store::FaultInjected);
  store::clear_fault_plan();

  options.resume = true;
  const core::PatchDb db = store::build_with_checkpoints(options);
  store::export_patchdb(db, dir("out"));
  obs::install_registry(previous);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("store.resumes"), 1u);
  EXPECT_GT(snap.counter("store.writes"), 0u);
  EXPECT_GT(snap.counter("store.bytes"), snap.counter("store.writes"));
  // Each write syncs its file, then its directory.
  EXPECT_GE(snap.counter("store.fsyncs"), snap.counter("store.writes"));
  EXPECT_EQ(snap.counter("store.checksum_failures"), 0u);
}

}  // namespace
}  // namespace patchdb
