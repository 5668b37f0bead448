// Checkpointed augmentation: persist the experts' verdicts at every
// round boundary so a killed build resumes instead of asking them
// again. The paper's augmentation loop (Algorithm 1, Table II) is a
// long-running, human-in-the-loop job, and the verdicts are its costly
// part; losing hours of expert verification to a crash is not
// acceptable at production scale.
//
// Checkpoint file (`<dir>/checkpoint.csv`): a sealed CSV document —
// version line, a fingerprint row, one `security,<commit>` row per wild
// find and one `nonsecurity,<commit>` row per rejected candidate, each
// in the order the loop reached them, and the FNV checksum trailer.
// Written atomically after every round that adds a verdict; a torn or
// tampered checkpoint fails its checksum and refuses to resume.
//
// A resumed build is bit-identical to an uninterrupted one: the world
// is rebuilt deterministically from the same seed, the recorded
// verdicts go to its oracle, and the rounds run again from the first.
// Each round is a function of the world and the verdicts, so the replay
// selects the same candidates, and the oracle answers each recorded one
// from the record (still counting it as effort) instead of asking again.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "core/patchdb.h"

namespace patchdb::store {

/// First line of a checkpoint file ("#patchdb.checkpoint.v5"). v1
/// files also hashed link-engine knobs into the fingerprint, v2 files
/// world options that are now constants, v3 files the world's commit
/// rates (now fixed by corpus::nvd_commit_options and
/// wild_commit_options), and v4 files held the loop's state (round
/// history, effort and residual pool); all four are refused as an
/// unsupported version.
std::string_view checkpoint_version_line();

/// `<dir>/checkpoint.csv`.
std::filesystem::path checkpoint_path(const std::filesystem::path& dir);

/// Fingerprint of every option that determines the simulated world. A
/// checkpoint written under one fingerprint refuses to resume under
/// another: the commits it names would no longer exist. The thread
/// count is left out because it never changes which candidates a round
/// selects.
std::uint64_t build_fingerprint(const core::BuildOptions& options);

/// The experts' verdicts a checkpoint holds: the wild finds and the
/// rejected candidates, each in the order the loop reached them.
struct Verdicts {
  std::vector<std::string> security;
  std::vector<std::string> nonsecurity;
};

/// Atomically (re)write `<dir>/checkpoint.csv`.
void write_checkpoint(const std::filesystem::path& dir, const Verdicts& verdicts,
                      std::uint64_t fingerprint);

/// Read and verify a checkpoint. Throws std::runtime_error when the
/// file is missing, corrupted (checksum/format), records a commit twice
/// (naming it), or was written under a different fingerprint (pass
/// `expected_fingerprint = kAnyFingerprint` to skip the fingerprint
/// check, e.g. for fsck).
inline constexpr std::uint64_t kAnyFingerprint = ~std::uint64_t{0};
Verdicts read_checkpoint(const std::filesystem::path& dir,
                         std::uint64_t expected_fingerprint);

/// core::build_patchdb with a checkpoint in `dir` written after every
/// round that adds a verdict (span store.checkpoint, counter
/// store.resumes). Passthrough when `dir` is empty. With `resume` and a
/// valid checkpoint present, its verdicts are recorded with the rebuilt
/// world's oracle before the rounds run; a checkpoint naming a commit
/// that world does not know is refused. With `resume` and no checkpoint
/// the build simply starts fresh.
core::PatchDb build_with_checkpoints(const core::BuildOptions& options,
                                     const std::filesystem::path& dir,
                                     bool resume);

}  // namespace patchdb::store
