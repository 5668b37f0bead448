// The human-in-the-loop dataset augmentation of Section III-B: candidate
// selection by nearest link search (the streaming engine,
// core/streaming_link.h), "manual" verification through the oracle, and
// the loop judgment on the security-patch hit ratio R. Reproduces the
// Table II protocol (rounds over growing labeled sets, pool swaps
// between rounds).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
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

/// Serializable loop state captured at a round boundary. Everything a
/// resumed build needs to continue bit-identically: the round counter,
/// the verified security / non-security sets in discovery order, and
/// the residual pool in its exact post-swap-erase order (pool order
/// feeds candidate selection, so it must be preserved, not re-derived).
/// Commits identify records; the world is rebuilt deterministically
/// from the same seed and the commits are resolved against it.
struct LoopCheckpoint {
  std::size_t rounds_run = 0;
  /// Loop judgment already fired (exhaustion or ratio below threshold);
  /// a resumed run must not start another round.
  bool finished = false;
  /// Oracle queries spent so far (restored so a resumed build reports
  /// the same cumulative manual-verification effort).
  std::size_t oracle_effort = 0;
  std::vector<RoundStats> history;
  std::vector<std::string> wild_security;  // finds beyond the seed, in order
  std::vector<std::string> nonsecurity;    // rejected candidates, in order
  std::vector<std::string> pool;           // residual pool, in order
};

/// Resolves checkpointed commits back to the rebuilt world's records.
using CommitIndex =
    std::unordered_map<std::string_view, const corpus::CommitRecord*>;

class AugmentationLoop {
 public:
  /// `seed_security` are the already-verified patches (the NVD-based
  /// dataset). The loop never re-verifies them.
  AugmentationLoop(std::vector<const corpus::CommitRecord*> seed_security,
                   corpus::Oracle& oracle);

  /// Replace the unlabeled pool (the paper swaps Set I -> Set II -> III).
  /// Features are extracted once per record here.
  void set_pool(std::vector<const corpus::CommitRecord*> pool);

  /// One candidate-selection + verification round.
  RoundStats run_round();

  /// Run until max_rounds total rounds (counting restored ones) or the
  /// ratio drops below stop_ratio. Returns the full round history,
  /// including rounds restored from a checkpoint.
  std::vector<RoundStats> run(const AugmentOptions& options);

  /// Invoked by run() after every completed round, after the loop
  /// judgment for that round has been evaluated — the checkpoint save
  /// point (store::build_with_checkpoints installs one).
  using RoundCallback =
      std::function<void(const AugmentationLoop&, const RoundStats&)>;
  void set_round_callback(RoundCallback callback) {
    on_round_ = std::move(callback);
  }

  /// Snapshot the loop state at the current round boundary.
  LoopCheckpoint checkpoint() const;

  /// Restore a checkpoint into a freshly constructed loop (same seed
  /// set, no pool installed, no rounds run — throws std::logic_error
  /// otherwise). Replaces set_pool(): the checkpoint carries the
  /// residual pool. Throws std::runtime_error when a checkpointed
  /// commit is missing from `by_commit`.
  void restore(const LoopCheckpoint& checkpoint, const CommitIndex& by_commit);

  /// True once the loop judgment has stopped the run.
  bool finished() const noexcept { return finished_; }

  /// Rounds completed so far, including restored ones.
  std::size_t rounds_run() const noexcept { return rounds_run_; }

  /// Per-round stats, including restored rounds.
  const std::vector<RoundStats>& history() const noexcept { return history_; }

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

 private:
  corpus::Oracle& oracle_;
  std::size_t seed_count_;
  std::size_t rounds_run_ = 0;
  bool finished_ = false;
  std::vector<RoundStats> history_;
  RoundCallback on_round_;

  std::vector<const corpus::CommitRecord*> security_;
  feature::FeatureMatrix security_features_;

  std::vector<const corpus::CommitRecord*> pool_;
  feature::FeatureMatrix pool_features_;

  std::vector<const corpus::CommitRecord*> nonsecurity_;
};

}  // namespace patchdb::core
