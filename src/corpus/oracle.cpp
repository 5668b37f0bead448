#include "corpus/oracle.h"

#include <stdexcept>

namespace patchdb::corpus {

void Oracle::add(const std::string& commit_hash, GroundTruth truth) {
  truths_[commit_hash] = truth;
}

bool Oracle::verify_security(const std::string& commit_hash) {
  ++effort_;
  const auto it = verdicts_.find(commit_hash);
  return it != verdicts_.end() ? it->second : truth(commit_hash).is_security;
}

void Oracle::record_verdict(const std::string& commit_hash, bool is_security) {
  verdicts_[commit_hash] = is_security;
}

GroundTruth Oracle::truth(const std::string& commit_hash) const {
  const auto it = truths_.find(commit_hash);
  if (it == truths_.end()) {
    throw std::out_of_range("Oracle: unknown commit " + commit_hash);
  }
  return it->second;
}

}  // namespace patchdb::corpus
