// Ground-truth oracle: the stand-in for the paper's three security
// experts who manually verify every nearest-link candidate. The oracle
// answers "is this commit a security patch?" from the corpus generator's
// ground truth and counts every query (the paper's headline result is a
// ~66% reduction in this manual effort).
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>

#include "corpus/repo.h"

namespace patchdb::corpus {

class Oracle {
 public:
  void add(const std::string& commit_hash, GroundTruth truth);
  void add(const CommitRecord& record) { add(record.patch.commit, record.truth); }

  bool known(const std::string& commit_hash) const {
    return truths_.contains(commit_hash);
  }

  /// "Manual verification": counts toward effort and answers the ground
  /// truth. Throws std::out_of_range for commits the oracle never saw.
  bool verify_security(const std::string& commit_hash);

  /// Ground truth without effort accounting (for scoring benches only).
  GroundTruth truth(const std::string& commit_hash) const;

  std::size_t effort() const noexcept { return effort_; }
  void reset_effort() noexcept { effort_ = 0; }
  /// Restore a checkpointed effort count so a resumed build reports the
  /// same cumulative manual-verification cost as an uninterrupted one.
  void set_effort(std::size_t effort) noexcept { effort_ = effort; }

  std::size_t size() const noexcept { return truths_.size(); }

 private:
  std::size_t effort_ = 0;
  std::unordered_map<std::string, GroundTruth> truths_;
};

}  // namespace patchdb::corpus
