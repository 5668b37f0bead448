// Ground-truth oracle: the stand-in for the paper's three security
// experts who manually verify every nearest-link candidate. The oracle
// answers "is this commit a security patch?" from the corpus generator's
// ground truth and counts every query (the paper's headline result is a
// ~66% reduction in this manual effort). A verdict recorded earlier (a
// resumed build's checkpoint, store/checkpoint.h) answers its commit in
// place of the ground truth, so the experts are never asked twice.
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

  /// "Manual verification": counts toward effort and answers the
  /// recorded verdict, else the ground truth. Throws std::out_of_range
  /// for commits the oracle never saw.
  bool verify_security(const std::string& commit_hash);

  /// Record a verdict given earlier; verify_security answers it for
  /// `commit_hash` from now on.
  void record_verdict(const std::string& commit_hash, bool is_security);

  /// Ground truth without effort accounting (for scoring benches only).
  GroundTruth truth(const std::string& commit_hash) const;

  std::size_t effort() const noexcept { return effort_; }
  void reset_effort() noexcept { effort_ = 0; }

  std::size_t size() const noexcept { return truths_.size(); }

 private:
  std::size_t effort_ = 0;
  std::unordered_map<std::string, GroundTruth> truths_;
  std::unordered_map<std::string, bool> verdicts_;
};

}  // namespace patchdb::corpus
