#include "core/augment.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "core/streaming_link.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace patchdb::core {

namespace {

/// Table I rows of `records`, in order: one feature::extract_all batch.
feature::FeatureMatrix features_of(
    std::span<const corpus::CommitRecord* const> records) {
  std::vector<const diff::Patch*> patches;
  patches.reserve(records.size());
  for (const corpus::CommitRecord* record : records) {
    patches.push_back(&record->patch);
  }
  return feature::extract_all(patches);
}

}  // namespace

AugmentationLoop::AugmentationLoop(
    std::vector<const corpus::CommitRecord*> seed_security,
    corpus::Oracle& oracle)
    : oracle_(oracle),
      seed_count_(seed_security.size()),
      security_(std::move(seed_security)) {
  security_features_ = features_of(security_);
}

void AugmentationLoop::set_pool(std::vector<const corpus::CommitRecord*> pool) {
  pool_ = std::move(pool);
  pool_features_ = features_of(pool_);
}

RoundStats AugmentationLoop::run_round() {
  PATCHDB_TRACE_SPAN("augment.round");
  RoundStats stats;
  stats.round = ++rounds_run_;
  stats.pool_size = pool_.size();
  if (pool_.empty() || security_.empty()) return stats;
  PATCHDB_COUNTER_ADD("augment.rounds", 1);
  PATCHDB_COUNTER_ADD("augment.pool_items", pool_.size());

  // Candidate selection. When the pool is smaller than the labeled set,
  // every remaining pool entry becomes a candidate.
  std::vector<std::size_t> selected;
  if (pool_.size() <= security_.size()) {
    selected.resize(pool_.size());
    for (std::size_t i = 0; i < selected.size(); ++i) selected[i] = i;
  } else {
    selected =
        streaming_nearest_link(security_features_, pool_features_).candidate;
  }
  stats.candidates = selected.size();

  // "Manual" verification of each candidate, then dataset bookkeeping.
  std::vector<char> verdict(selected.size(), 0);
  {
    PATCHDB_TRACE_SPAN("augment.verify");
    obs::Progress progress("augment.verify r" + std::to_string(stats.round),
                           selected.size());
    for (std::size_t i = 0; i < selected.size(); ++i) {
      verdict[i] =
          oracle_.verify_security(pool_[selected[i]]->patch.commit) ? 1 : 0;
      progress.tick();
    }
  }

  for (std::size_t i = 0; i < selected.size(); ++i) {
    const corpus::CommitRecord* record = pool_[selected[i]];
    if (verdict[i] != 0) {
      ++stats.verified_security;
      security_.push_back(record);
      security_features_.push_back(pool_features_[selected[i]]);
    } else {
      nonsecurity_.push_back(record);
    }
  }
  stats.ratio = stats.candidates == 0
                    ? 0.0
                    : static_cast<double>(stats.verified_security) /
                          static_cast<double>(stats.candidates);

  // Pipeline-domain stats: per-round candidate hit ratio R (the paper's
  // loop-judgment signal) as a per-round gauge, plus running counters.
  PATCHDB_COUNTER_ADD("augment.candidates", stats.candidates);
  PATCHDB_COUNTER_ADD("augment.verified_security", stats.verified_security);
  const std::string round_prefix =
      "augment.round." + std::to_string(stats.round);
  PATCHDB_GAUGE_SET(round_prefix + ".hit_ratio", stats.ratio);
  PATCHDB_GAUGE_SET(round_prefix + ".pool_size",
                    static_cast<double>(stats.pool_size));
  PATCHDB_GAUGE_SET("augment.last_hit_ratio", stats.ratio);

  // Remove every verified candidate from the pool (swap-erase, highest
  // index first so earlier indices stay valid).
  std::vector<std::size_t> order = selected;
  std::sort(order.begin(), order.end(), std::greater<>());
  for (std::size_t idx : order) {
    const std::size_t last = pool_.size() - 1;
    pool_[idx] = pool_[last];
    if (idx != last) pool_features_.set_row(idx, pool_features_[last]);
    pool_.pop_back();
  }
  pool_features_.truncate(pool_.size());

  history_.push_back(stats);
  return stats;
}

std::vector<RoundStats> AugmentationLoop::run(const AugmentOptions& options) {
  // max_rounds is an upper bound, not a prediction — the loop usually
  // stops on the hit-ratio criterion first, so the heartbeat reports
  // round throughput against the cap.
  obs::Progress progress("augment.rounds", options.max_rounds);
  while (rounds_run_ < options.max_rounds && !finished_) {
    const RoundStats stats = run_round();
    progress.tick();
    if (stats.candidates == 0 || stats.ratio < options.stop_ratio) {
      finished_ = true;
    }
    if (on_round_) on_round_(*this, stats);
  }
  return history_;
}

LoopCheckpoint AugmentationLoop::checkpoint() const {
  LoopCheckpoint cp;
  cp.rounds_run = rounds_run_;
  cp.finished = finished_;
  cp.oracle_effort = oracle_.effort();
  cp.history = history_;
  cp.wild_security.reserve(security_.size() - seed_count_);
  for (std::size_t i = seed_count_; i < security_.size(); ++i) {
    cp.wild_security.push_back(security_[i]->patch.commit);
  }
  cp.nonsecurity.reserve(nonsecurity_.size());
  for (const corpus::CommitRecord* r : nonsecurity_) {
    cp.nonsecurity.push_back(r->patch.commit);
  }
  cp.pool.reserve(pool_.size());
  for (const corpus::CommitRecord* r : pool_) {
    cp.pool.push_back(r->patch.commit);
  }
  return cp;
}

void AugmentationLoop::restore(const LoopCheckpoint& checkpoint,
                               const CommitIndex& by_commit) {
  if (rounds_run_ != 0 || !pool_.empty() || !nonsecurity_.empty()) {
    throw std::logic_error("augment: restore requires a fresh loop");
  }
  const auto lookup = [&by_commit](const std::string& commit) {
    const auto it = by_commit.find(commit);
    if (it == by_commit.end()) {
      throw std::runtime_error("augment: checkpoint names unknown commit " +
                               commit);
    }
    return it->second;
  };
  for (const std::string& commit : checkpoint.wild_security) {
    security_.push_back(lookup(commit));
  }
  const feature::FeatureMatrix wild =
      features_of(std::span(security_).subspan(seed_count_));
  for (std::size_t i = 0; i < wild.rows(); ++i) {
    security_features_.push_back(wild[i]);
  }
  nonsecurity_.reserve(checkpoint.nonsecurity.size());
  for (const std::string& commit : checkpoint.nonsecurity) {
    nonsecurity_.push_back(lookup(commit));
  }
  pool_.reserve(checkpoint.pool.size());
  for (const std::string& commit : checkpoint.pool) {
    pool_.push_back(lookup(commit));
  }
  pool_features_ = features_of(pool_);
  rounds_run_ = checkpoint.rounds_run;
  finished_ = checkpoint.finished;
  history_ = checkpoint.history;
}

std::vector<const corpus::CommitRecord*> AugmentationLoop::wild_security() const {
  return {security_.begin() + static_cast<std::ptrdiff_t>(seed_count_),
          security_.end()};
}

}  // namespace patchdb::core
