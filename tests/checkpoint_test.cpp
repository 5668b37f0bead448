// Crash-safety tests for the checkpointed build: kill-point sweep with
// fault injection (a build interrupted at any round boundary and resumed
// exports bit-identically), the recorded verdicts a resume replays,
// torn-write detection, fingerprint guards, and fsck corruption
// coverage.
#include <gtest/gtest.h>

#include <algorithm>
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

/// The commit of each record, in order.
std::vector<std::string> commits_of(const std::vector<corpus::CommitRecord>& records) {
  std::vector<std::string> commits;
  for (const corpus::CommitRecord& record : records) {
    commits.push_back(record.patch.commit);
  }
  return commits;
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
  store::Verdicts verdicts;
  verdicts.security = {"aabb02", "aabb01"};  // order must survive verbatim
  verdicts.nonsecurity = {"ccdd01"};

  store::write_checkpoint(dir("cp"), verdicts, 0x1234u);
  const store::Verdicts back = store::read_checkpoint(dir("cp"), 0x1234u);
  EXPECT_EQ(back.security, verdicts.security);
  EXPECT_EQ(back.nonsecurity, verdicts.nonsecurity);

  // Wrong fingerprint refuses; kAnyFingerprint (fsck) skips the check.
  EXPECT_THROW(store::read_checkpoint(dir("cp"), 0x9999u), std::runtime_error);
  EXPECT_NO_THROW(store::read_checkpoint(dir("cp"), store::kAnyFingerprint));
}

TEST_F(CheckpointTest, CheckpointedBuildMatchesPlainBuild) {
  const core::BuildOptions options = small_options();
  const core::PatchDb plain = core::build_patchdb(options);
  store::export_patchdb(plain, dir("plain"));

  const core::PatchDb checkpointed =
      store::build_with_checkpoints(options, dir("ckpt"), false);
  store::export_patchdb(checkpointed, dir("checkpointed"));

  EXPECT_TRUE(fs::exists(store::checkpoint_path(dir("ckpt"))));
  EXPECT_EQ(dir_contents(dir("plain")), dir_contents(dir("checkpointed")));
}

// The acceptance test: interrupt the build at EVERY round boundary (the
// Nth checkpoint write fails as if the process died there), resume with
// --resume semantics, and require the resumed export to be bit-identical
// to an uninterrupted run's.
TEST_F(CheckpointTest, KillPointSweepResumesBitIdentical) {
  const core::BuildOptions options = small_options();
  store::clear_fault_plan();  // reset the write counter
  const core::PatchDb baseline =
      store::build_with_checkpoints(options, dir("baseline_ckpt"), false);
  const std::size_t round_writes = store::fault_write_count();
  ASSERT_GE(round_writes, 2u) << "world too small to exercise kill points";
  store::export_patchdb(baseline, dir("baseline_out"));
  const std::map<std::string, std::string> want = dir_contents(dir("baseline_out"));

  for (std::size_t k = 0; k < round_writes; ++k) {
    const std::string tag = "kill" + std::to_string(k);
    const fs::path checkpoint_dir = dir(tag + "_ckpt");

    store::FaultPlan plan;
    plan.fail_write = k;
    store::set_fault_plan(plan);
    EXPECT_THROW(store::build_with_checkpoints(options, checkpoint_dir, false),
                 store::FaultInjected)
        << "kill point " << k;
    store::clear_fault_plan();

    const core::PatchDb resumed =
        store::build_with_checkpoints(options, checkpoint_dir, true);
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
  const core::BuildOptions options = small_options();

  // The second checkpoint write tears: half the new content lands at the
  // final path, as a non-atomic writer would leave it after a crash.
  store::FaultPlan plan;
  plan.fail_write = 1;
  plan.truncate = true;
  store::set_fault_plan(plan);
  EXPECT_THROW(store::build_with_checkpoints(options, dir("ckpt"), false),
               store::FaultInjected);
  store::clear_fault_plan();
  ASSERT_TRUE(fs::exists(store::checkpoint_path(dir("ckpt"))));

  EXPECT_THROW(store::build_with_checkpoints(options, dir("ckpt"), true),
               std::runtime_error);

  const store::FsckReport report = store::fsck(dir("ckpt"));
  EXPECT_FALSE(report.ok());
}

// An older checkpoint carries an older version line: v1 hashed the link
// engine's settings into the fingerprint, v2 the world options that are
// now constants, v3 the world's commit rates, and v4 held the loop's
// state. Each must be refused as an unsupported version, not misread as
// "written by a build with different options".
TEST_F(CheckpointTest, V1CheckpointRefusedByResumeAndFlaggedByFsck) {
  for (const std::string old : {"#patchdb.checkpoint.v1", "#patchdb.checkpoint.v2",
                                "#patchdb.checkpoint.v3", "#patchdb.checkpoint.v4"}) {
    const core::BuildOptions options = small_options();
    store::build_with_checkpoints(options, dir("ckpt"), false);
    const fs::path path = store::checkpoint_path(dir("ckpt"));
    std::string body(
        store::strip_checksum_trailer(store::read_file(path), "checkpoint.csv"));
    const std::string current = std::string(store::checkpoint_version_line());
    ASSERT_EQ(body.rfind(current + "\n", 0), 0u);
    body.replace(0, current.size(), old);
    std::ofstream(path, std::ios::binary)
        << store::with_checksum_trailer(std::move(body));

    try {
      store::build_with_checkpoints(options, dir("ckpt"), true);
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
  const core::BuildOptions options = small_options();
  const core::PatchDb plain = core::build_patchdb(options);
  store::export_patchdb(plain, dir("plain"));

  // Nothing to resume from.
  const core::PatchDb fresh =
      store::build_with_checkpoints(options, dir("empty_ckpt"), true);
  store::export_patchdb(fresh, dir("fresh"));
  EXPECT_EQ(dir_contents(dir("plain")), dir_contents(dir("fresh")));
}

// A --resume build says on stderr where it started: fresh when the
// directory holds no checkpoint, else the checkpoint file and how many
// verdicts it recorded.
TEST_F(CheckpointTest, ResumeSaysWhereItStartedOnStderr) {
  core::BuildOptions options = small_options();
  options.augment.max_rounds = 1;
  ::testing::internal::CaptureStderr();
  const core::PatchDb first =
      store::build_with_checkpoints(options, dir("ckpt"), true);
  const std::string fresh = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(fresh.find("store: no checkpoint in " + dir("ckpt").string() +
                       ", starting fresh\n"),
            std::string::npos)
      << fresh;

  options.augment.max_rounds = 2;
  ::testing::internal::CaptureStderr();
  store::build_with_checkpoints(options, dir("ckpt"), true);
  const std::string resumed = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(resumed.find("store: resumed from " +
                         store::checkpoint_path(dir("ckpt")).string() +
                         " with " + std::to_string(first.rounds[0].candidates) +
                         " recorded verdicts (" +
                         std::to_string(first.wild_security.size()) +
                         " wild finds)\n"),
            std::string::npos)
      << resumed;
}

TEST_F(CheckpointTest, ResumeRefusesCheckpointFromDifferentBuild) {
  core::BuildOptions options = small_options();
  store::build_with_checkpoints(options, dir("ckpt"), false);
  ASSERT_TRUE(fs::exists(store::checkpoint_path(dir("ckpt"))));

  options.world.seed = 78;  // different world: its commits don't exist here
  EXPECT_THROW(store::build_with_checkpoints(options, dir("ckpt"), true),
               std::runtime_error);
}

// The checkpoint is the experts' verdicts: after a full build it holds
// one row per candidate the rounds verified, the wild finds and the
// rejections each in the loop's order.
TEST_F(CheckpointTest, CheckpointHoldsOneVerdictPerCandidate) {
  const core::PatchDb db =
      store::build_with_checkpoints(small_options(), dir("ckpt"), false);
  ASSERT_EQ(db.rounds.size(), 3u);
  std::size_t candidates = 0;
  for (const core::RoundStats& round : db.rounds) candidates += round.candidates;

  const store::Verdicts verdicts =
      store::read_checkpoint(dir("ckpt"), store::kAnyFingerprint);
  EXPECT_EQ(verdicts.security.size() + verdicts.nonsecurity.size(), candidates);
  EXPECT_EQ(verdicts.security, commits_of(db.wild_security));
  EXPECT_EQ(verdicts.nonsecurity, commits_of(db.nonsecurity));
}

// Rounds a checkpoint never saw extend it: a 2-round checkpoint resumed
// with 3 rounds exports a plain 3-round build's bytes, and the replayed
// rounds count their verdicts as effort once, as the plain build did.
TEST_F(CheckpointTest, TwoRoundCheckpointResumedToThreeRoundsMatchesPlainBuild) {
  core::BuildOptions options = small_options();
  const core::PatchDb plain = core::build_patchdb(options);
  store::export_patchdb(plain, dir("plain"));

  options.augment.max_rounds = 2;
  store::build_with_checkpoints(options, dir("ckpt"), false);
  options.augment.max_rounds = 3;
  const core::PatchDb resumed =
      store::build_with_checkpoints(options, dir("ckpt"), true);
  store::export_patchdb(resumed, dir("resumed"));

  EXPECT_EQ(dir_contents(dir("resumed")), dir_contents(dir("plain")));
  EXPECT_EQ(resumed.rounds.size(), plain.rounds.size());
  EXPECT_EQ(resumed.verification_effort, plain.verification_effort);
}

// A resume asks no recorded verdict again: the checkpoint answers it,
// even where the ground truth disagrees. Move one wild find of round 1
// to a nonsecurity row, re-seal, and the resumed build rejects it.
TEST_F(CheckpointTest, ResumeTakesRecordedVerdictsFromTheCheckpoint) {
  core::BuildOptions options = small_options();
  options.augment.max_rounds = 1;
  store::build_with_checkpoints(options, dir("ckpt"), false);
  store::Verdicts verdicts =
      store::read_checkpoint(dir("ckpt"), store::build_fingerprint(options));
  ASSERT_FALSE(verdicts.security.empty());
  const std::string moved = verdicts.security.front();
  verdicts.security.erase(verdicts.security.begin());
  verdicts.nonsecurity.push_back(moved);
  store::write_checkpoint(dir("ckpt"), verdicts, store::build_fingerprint(options));

  options.augment.max_rounds = 3;
  const core::PatchDb resumed =
      store::build_with_checkpoints(options, dir("ckpt"), true);
  const std::vector<std::string> wild = commits_of(resumed.wild_security);
  const std::vector<std::string> rejected = commits_of(resumed.nonsecurity);
  EXPECT_EQ(std::count(wild.begin(), wild.end(), moved), 0);
  EXPECT_EQ(std::count(rejected.begin(), rejected.end(), moved), 1);
}

// A replayed round holds no verdict beyond the record, so it rewrites
// nothing: resumed with fewer rounds than it recorded, a checkpoint
// keeps every verdict for a later resume.
TEST_F(CheckpointTest, ReplayedRoundsKeepEveryRecordedVerdict) {
  core::BuildOptions options = small_options();
  store::build_with_checkpoints(options, dir("ckpt"), false);
  const store::Verdicts recorded =
      store::read_checkpoint(dir("ckpt"), store::kAnyFingerprint);

  options.augment.max_rounds = 1;
  const core::PatchDb one_round =
      store::build_with_checkpoints(options, dir("ckpt"), true);
  EXPECT_EQ(one_round.rounds.size(), 1u);
  const store::Verdicts kept =
      store::read_checkpoint(dir("ckpt"), store::kAnyFingerprint);
  EXPECT_EQ(kept.security, recorded.security);
  EXPECT_EQ(kept.nonsecurity, recorded.nonsecurity);
}

TEST_F(CheckpointTest, ResumeRefusesCheckpointNamingAnUnknownCommit) {
  const core::BuildOptions options = small_options();
  store::build_with_checkpoints(options, dir("ckpt"), false);
  store::Verdicts verdicts =
      store::read_checkpoint(dir("ckpt"), store::kAnyFingerprint);
  const std::string unknown(40, 'e');
  verdicts.nonsecurity.push_back(unknown);
  store::write_checkpoint(dir("ckpt"), verdicts, store::build_fingerprint(options));

  try {
    store::build_with_checkpoints(options, dir("ckpt"), true);
    ADD_FAILURE() << "resumed from a checkpoint naming " << unknown;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown commit " + unknown),
              std::string::npos)
        << e.what();
  }
}

// A checkpoint that records one commit twice holds no single verdict for
// it, whether the rows agree or not: resume refuses it and names the
// commit, as the manifest walker refuses a repeated commit, and fsck
// reports it. The repeat is a wild find recorded again as rejected, and
// the same find recorded twice as found.
TEST_F(CheckpointTest, CheckpointRecordingACommitTwiceIsRefused) {
  const core::BuildOptions options = small_options();
  for (const bool as_nonsecurity : {true, false}) {
    store::build_with_checkpoints(options, dir("ckpt"), false);
    store::Verdicts verdicts =
        store::read_checkpoint(dir("ckpt"), store::kAnyFingerprint);
    ASSERT_FALSE(verdicts.security.empty());
    const std::string repeated = verdicts.security.front();
    (as_nonsecurity ? verdicts.nonsecurity : verdicts.security).push_back(repeated);
    store::write_checkpoint(dir("ckpt"), verdicts, store::build_fingerprint(options));

    try {
      store::build_with_checkpoints(options, dir("ckpt"), true);
      ADD_FAILURE() << "resumed from a checkpoint recording " << repeated << " twice";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate commit " + repeated),
                std::string::npos)
          << e.what();
    }

    const store::FsckReport report = store::fsck(dir("ckpt"));
    ASSERT_FALSE(report.ok()) << "fsck passed a checkpoint recording " << repeated
                              << " twice";
    EXPECT_NE(report.errors[0].find("duplicate commit " + repeated), std::string::npos)
        << report.errors[0];
    fs::remove_all(dir("ckpt"));
  }
}

TEST_F(CheckpointTest, FsckAcceptsCleanDatasetAndCheckpoint) {
  const core::PatchDb db =
      store::build_with_checkpoints(small_options(), dir("ckpt"), false);
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

  const core::BuildOptions options = small_options();
  store::FaultPlan plan;
  plan.fail_write = 1;
  store::set_fault_plan(plan);
  EXPECT_THROW(store::build_with_checkpoints(options, dir("ckpt"), false),
               store::FaultInjected);
  store::clear_fault_plan();

  const core::PatchDb db = store::build_with_checkpoints(options, dir("ckpt"), true);
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
