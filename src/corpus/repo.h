// Commit fabrication: turn a mutation into a full git-style Patch with
// metadata, optional multi-file spread, and optional non-C/C++ companion
// files (the dirt the NVD pipeline has to strip). Each commit also
// carries its ground truth and, when requested, BEFORE/AFTER snapshots
// of every touched file — the "roll the repository back" capability the
// synthesizer needs (Section III-C.1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/mutate.h"
#include "corpus/taxonomy.h"
#include "diff/patch.h"
#include "util/rng.h"

namespace patchdb::corpus {

struct GroundTruth {
  bool is_security = false;
  PatchType type = PatchType::kOther;
};

struct FileSnapshot {
  std::string path;
  std::vector<std::string> before;
  std::vector<std::string> after;
};

struct CommitRecord {
  diff::Patch patch;
  GroundTruth truth;
  std::string repo;
  std::vector<FileSnapshot> snapshots;  // empty unless snapshots requested
};

struct CommitOptions {
  bool keep_snapshots = false;
  /// Probability of a second C file changed with the same pattern.
  double multi_file_prob = 0.10;
  /// Probability of a companion non-C/C++ file change (ChangeLog etc.).
  double noise_file_prob = 0.12;
  /// Probability that a SECURITY commit bundles a small unrelated
  /// cleanup in a neighbor function (silent wild fixes frequently do;
  /// NVD-referenced fixes are usually minimal). The bundle shifts the
  /// patch's feature vector off the pure fix-template position, which is
  /// the covariate shift between NVD and wild positives that Table III's
  /// globally-trained baselines stumble over.
  double bundle_cleanup_prob = 0.0;

  /// Probability that a SECURITY commit's message is replaced by a
  /// neutral euphemism ("handle edge case", "robustness fix"). Models
  /// the paper's observation that 61% of Linux security patches never
  /// mention their security impact — the reason text mining fails and
  /// code-level analysis is needed.
  double euphemize_prob = 0.0;
};

/// Fabricate one commit of the given type inside `repo_name`.
CommitRecord make_commit(util::Rng& rng, const std::string& repo_name,
                         PatchType type, const CommitOptions& options = {});

/// Fabricate a deliberately wrong "patch" page: a big version-bump commit
/// that mingles many unrelated changes (the paper observes up to 1% of
/// NVD links point at such pages).
CommitRecord make_version_bump_commit(util::Rng& rng, const std::string& repo_name);

/// Draw a PatchType: security type from `dist` with probability
/// `security_prob`, otherwise a uniform non-security kind.
PatchType draw_patch_type(util::Rng& rng, const TypeDistribution& dist,
                          double security_prob);

}  // namespace patchdb::corpus
