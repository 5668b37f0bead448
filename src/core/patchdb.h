// End-to-end PatchDB builder facade: one call runs the whole pipeline
// of Fig. 1 — NVD collection, nearest-link wild augmentation with the
// oracle in the loop, and synthetic oversampling — and returns the three
// dataset components. Examples and the quickstart use this; benches
// drive the stages individually for finer measurement.
// store::build_with_checkpoints (store/checkpoint.h) runs the same
// pipeline through BuildHooks, with the experts' verdicts checkpointed
// after every round.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/augment.h"
#include "corpus/world.h"
#include "synth/synthesize.h"

namespace patchdb::core {

struct BuildOptions {
  corpus::WorldConfig world;          // scale of the simulated universe
  AugmentOptions augment;             // rounds / stop threshold
  synth::SynthesisOptions synthesis;  // oversampling knobs
  bool run_synthesis = true;
};

/// Injection points for checkpoint/resume (or any other round-boundary
/// instrumentation) without a core -> store dependency.
struct BuildHooks {
  /// Called after the world is built and the loop constructed, before
  /// the wild pool is installed: where a resumed build records the
  /// checkpoint's verdicts with world.oracle.
  std::function<void(AugmentationLoop&, corpus::World&)> before_rounds;
  /// Installed as the loop's round callback (the checkpoint save point).
  AugmentationLoop::RoundCallback after_round;
};

struct PatchDb {
  /// Component 1: NVD-based security patches (crawled + verified).
  std::vector<corpus::CommitRecord> nvd_security;
  /// Component 2: wild-based security patches found by augmentation.
  std::vector<corpus::CommitRecord> wild_security;
  /// Cleaned non-security patches (rejected candidates).
  std::vector<corpus::CommitRecord> nonsecurity;
  /// Component 3: synthetic patches derived from the natural ones.
  std::vector<synth::SyntheticPatch> synthetic;

  /// The Table I row of each natural patch, in manifest order: one per
  /// nvd_security record, then per wild_security record, then per
  /// nonsecurity record, each equal to feature::extract of its patch
  /// bitwise. Or no rows at all. build_patchdb moves in the rows the
  /// augmentation loop extracted, so no natural patch is featurized
  /// twice; store::export_patchdb formats them, and extracts the rows
  /// itself only for a PatchDb that carries none.
  feature::FeatureMatrix features;

  /// Collection + augmentation telemetry.
  corpus::CrawlStats crawl_stats;
  std::vector<RoundStats> rounds;
  std::size_t verification_effort = 0;

  std::size_t natural_security_count() const noexcept {
    return nvd_security.size() + wild_security.size();
  }
};

/// Run the full pipeline at the configured scale.
PatchDb build_patchdb(const BuildOptions& options);

/// Same pipeline with hook injection (checkpoint/resume drivers).
PatchDb build_patchdb(const BuildOptions& options, const BuildHooks& hooks);

}  // namespace patchdb::core
