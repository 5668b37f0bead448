// Source-level patch oversampling (Section III-C): locate the `if`
// statements a patch touches, apply one of the Fig. 5 control-flow
// variants to the BEFORE or AFTER file version, and re-diff to obtain a
// synthetic patch. Modifying AFTER adds the extra change on top of the
// original fix; modifying BEFORE is equivalent to merging the inverse
// modification into the patch — re-diffing the reconstructed versions
// realizes both cases exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "corpus/repo.h"
#include "diff/patch.h"
#include "synth/variants.h"
#include "util/rng.h"

namespace patchdb::synth {

struct SyntheticPatch {
  diff::Patch patch;
  std::string origin_commit;  // the natural patch this was derived from
  IfVariant variant = IfVariant::kOrZero;
  bool modified_after = true;  // false = BEFORE version was modified
  corpus::GroundTruth truth;   // inherited from the origin
};

/// Variants are drawn on both file versions: AFTER, and BEFORE (the
/// paper's "inverse modification" direction).
struct SynthesisOptions {
  /// Cap on synthetic patches derived from one natural patch (the paper
  /// produces roughly 4x the natural count; 0 = no cap).
  std::size_t max_per_patch = 4;
};

/// Synthesize variants of one natural patch. Requires the record to
/// carry file snapshots; records without snapshots yield an empty set.
std::vector<SyntheticPatch> synthesize(const corpus::CommitRecord& record,
                                       const SynthesisOptions& options,
                                       std::uint64_t seed);

/// Synthesize over a whole set of records (parallel).
std::vector<SyntheticPatch> synthesize_all(
    std::span<const corpus::CommitRecord> records,
    const SynthesisOptions& options, std::uint64_t seed);

}  // namespace patchdb::synth
