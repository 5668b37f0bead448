// Checkpointed augmentation: persist core::LoopCheckpoint at every
// round boundary so a killed build resumes instead of restarting. The
// paper's augmentation loop (Algorithm 1, Table II) is a long-running,
// human-in-the-loop job; losing hours of expert verification to a crash
// is not acceptable at production scale.
//
// Checkpoint file (`<dir>/checkpoint.csv`): a sealed CSV document —
// version line, tagged rows (fingerprint, counters, per-round stats,
// then the verified/rejected/residual commit sets in order), and the
// FNV checksum trailer. Written atomically after every round; a torn
// or tampered checkpoint fails its checksum and refuses to resume.
//
// A resumed build is bit-identical to an uninterrupted one: the world
// is rebuilt deterministically from the same seed, the loop state is
// restored commit-by-commit in recorded order (including the residual
// pool's exact order, which candidate selection depends on), and the
// remaining rounds and export run unchanged.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string_view>

#include "core/augment.h"
#include "core/patchdb.h"

namespace patchdb::store {

/// First line of a checkpoint file ("#patchdb.checkpoint.v4"). v1
/// files also hashed link-engine knobs into the fingerprint, v2 files
/// world options that are now constants, and v3 files the world's
/// commit rates (now fixed by corpus::nvd_commit_options and
/// wild_commit_options); all three are refused as an unsupported
/// version.
std::string_view checkpoint_version_line();

/// `<dir>/checkpoint.csv`.
std::filesystem::path checkpoint_path(const std::filesystem::path& dir);

/// Fingerprint of every option that determines the simulated world. A
/// checkpoint written under one fingerprint refuses to resume under
/// another: the commits it names would no longer exist. The thread
/// count is left out because it never changes which candidates a round
/// selects.
std::uint64_t build_fingerprint(const core::BuildOptions& options);

/// Atomically (re)write `<dir>/checkpoint.csv`.
void write_checkpoint(const std::filesystem::path& dir,
                      const core::LoopCheckpoint& checkpoint,
                      std::uint64_t fingerprint);

/// Read and verify a checkpoint. Throws std::runtime_error when the
/// file is missing, corrupted (checksum/format), or was written under a
/// different fingerprint (pass `expected_fingerprint = kAnyFingerprint`
/// to skip the fingerprint check, e.g. for fsck).
inline constexpr std::uint64_t kAnyFingerprint = ~std::uint64_t{0};
core::LoopCheckpoint read_checkpoint(const std::filesystem::path& dir,
                                     std::uint64_t expected_fingerprint);

/// core::build_patchdb with checkpoint/resume wired in (obs counter
/// store.resumes). Passthrough when options.checkpoint_dir is empty.
/// With options.resume and a valid checkpoint present, the augmentation
/// restarts at the last completed round; with resume and no checkpoint
/// the build simply starts fresh.
core::PatchDb build_with_checkpoints(const core::BuildOptions& options);

}  // namespace patchdb::store
