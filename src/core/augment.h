// The human-in-the-loop dataset augmentation of Section III-B: candidate
// selection by nearest link search (the streaming engine,
// core/streaming_link.h), "manual" verification through the oracle, and
// the loop judgment on the security-patch hit ratio R. Reproduces the
// Table II protocol (rounds over growing labeled sets, pool swaps
// between rounds). It keeps the Table I row of every patch it verified,
// found or rejected, so the dataset's features.csv needs no second
// extraction (take_features).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "corpus/oracle.h"
#include "corpus/repo.h"
#include "feature/features.h"

namespace patchdb::core {

struct RoundStats {
  std::size_t round = 0;
  std::size_t pool_size = 0;           // unlabeled patches searched
  std::size_t candidates = 0;          // = labeled security size (paper)
  std::size_t verified_security = 0;   // oracle said "security"
  double ratio = 0.0;                  // verified / candidates
};

struct AugmentOptions {
  std::size_t max_rounds = 5;
  /// Loop judgment: stop when R falls below this threshold.
  double stop_ratio = 0.0;
};

class AugmentationLoop {
 public:
  /// `seed_security` are the already-verified patches (the NVD-based
  /// dataset). The loop never re-verifies them.
  AugmentationLoop(std::vector<const corpus::CommitRecord*> seed_security,
                   corpus::Oracle& oracle);

  /// Replace the unlabeled pool (the paper swaps Set I -> Set II -> III).
  /// Features are extracted once per record here; each verified
  /// candidate's row moves to the security or the rejected rows, and
  /// the loop never extracts it again.
  void set_pool(std::vector<const corpus::CommitRecord*> pool);

  /// One candidate-selection + verification round.
  RoundStats run_round();

  /// Run rounds until max_rounds have run in all (run_round calls
  /// included) or the ratio drops below stop_ratio. Returns the stats of
  /// the rounds this call ran.
  std::vector<RoundStats> run(const AugmentOptions& options);

  /// Invoked by run() after every completed round, after the loop
  /// judgment for that round has been evaluated — the checkpoint save
  /// point (store::build_with_checkpoints installs one).
  using RoundCallback =
      std::function<void(const AugmentationLoop&, const RoundStats&)>;
  void set_round_callback(RoundCallback callback) {
    on_round_ = std::move(callback);
  }

  /// Every verified security patch (seed + wild finds).
  const std::vector<const corpus::CommitRecord*>& security() const noexcept {
    return security_;
  }
  /// Security patches discovered in the wild (excludes the seed).
  std::vector<const corpus::CommitRecord*> wild_security() const;
  /// Candidates the oracle rejected (the cleaned non-security dataset).
  const std::vector<const corpus::CommitRecord*>& nonsecurity() const noexcept {
    return nonsecurity_;
  }
  std::size_t pool_remaining() const noexcept { return pool_.size(); }

  /// Moves out the Table I row of every verified patch, in the order of
  /// security() and then nonsecurity(): the seed's, the wild finds' and
  /// the rejected candidates'. The rejected rows are appended behind the
  /// others, the only copy; the loop is left without rows.
  feature::FeatureMatrix take_features();

 private:
  corpus::Oracle& oracle_;
  std::size_t seed_count_;
  std::size_t rounds_run_ = 0;
  RoundCallback on_round_;

  std::vector<const corpus::CommitRecord*> security_;
  feature::FeatureMatrix security_features_;

  std::vector<const corpus::CommitRecord*> pool_;
  feature::FeatureMatrix pool_features_;

  std::vector<const corpus::CommitRecord*> nonsecurity_;
  feature::FeatureMatrix nonsecurity_features_;
};

}  // namespace patchdb::core
