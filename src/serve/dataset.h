// ServedDataset: the immutable in-memory snapshot patchdbd serves.
// Loaded once at startup from a sealed v2 export (store::load_patchdb —
// which verifies the manifest trailer, each pack's footer and every
// per-patch content checksum, so a truncated or tampered dataset is
// refused before the socket ever opens) and then shared read-only
// across every connection thread: queries take `const ServedDataset&` and
// the server never mutates it, so no lock guards the hot path.
//
// At load the snapshot precomputes what queries need:
//   - an id -> patch index over every component,
//   - the Table I feature matrix of the natural patches, the max-abs
//     weights learned over it, and the weight-scaled float rows the
//     nearest-link kernels operate on (core::scale_features), packed
//     once for the blocked kernel, so k-nearest answers are
//     bit-identical to the offline dense and streaming link paths,
//   - the Table V composition (ground-truth and categorizer counts).
//
// Synthetic patches are looked up and featurized like natural ones but
// are not part of the nearest-query corpus — mirroring features.csv,
// which only carries rows for natural patches.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query.h"
#include "corpus/repo.h"
#include "feature/features.h"
#include "serve/protocol.h"
#include "synth/synthesize.h"

namespace patchdb::serve {

/// One patch as served: metadata + the parsed diff.
struct ServedPatch {
  std::string id;
  WireComponent component = WireComponent::kNvd;
  corpus::GroundTruth truth;
  std::string repo;    // natural patches
  std::string origin;  // synthetic patches
  int variant = 0;
  bool modified_after = false;
  diff::Patch patch;
};

class ServedDataset {
 public:
  /// Load a sealed v2 export. Propagates store::load_patchdb's
  /// std::runtime_error on any integrity failure (missing manifest,
  /// checksum mismatch, malformed rows) — the daemon turns that into a
  /// refusal to start.
  static ServedDataset load(const std::filesystem::path& root);

  /// Build a snapshot from in-memory components (tests and the
  /// in-process bench path; same precomputation as load()).
  static ServedDataset from_components(
      std::vector<corpus::CommitRecord> nvd,
      std::vector<corpus::CommitRecord> wild,
      std::vector<corpus::CommitRecord> nonsecurity,
      std::vector<synth::SyntheticPatch> synthetic);

  ServedDataset() = default;
  // Move-only: by_id_ holds string_views into patches_' id strings
  // (stable across vector moves, not across element copies).
  ServedDataset(const ServedDataset&) = delete;
  ServedDataset& operator=(const ServedDataset&) = delete;
  ServedDataset(ServedDataset&&) = default;
  ServedDataset& operator=(ServedDataset&&) = default;

  std::size_t size() const noexcept { return patches_.size(); }
  /// Natural patches — the nearest-query corpus size.
  std::size_t natural_size() const noexcept { return natural_rows_; }

  /// Index of `id`, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find(std::string_view id) const noexcept;
  const ServedPatch& patch(std::size_t index) const { return patches_[index]; }

  // ----- query entry points (each maps to one protocol op) -----
  PingResponse ping() const;
  /// kNotFound error when the id is unknown; otherwise metadata plus
  /// the re-rendered unified diff (byte-identical to its exported pack
  /// entry — exports round-trip through diff::render_patch).
  Response lookup(const LookupRequest& request) const;
  Response features(const FeaturesRequest& request) const;
  Response nearest(const NearestRequest& request) const;
  Response stats(const StatsRequest& request) const;
  Response analyze(const AnalyzeRequest& request) const;
  Response list_ids(const ListIdsRequest& request) const;

  /// Dispatch any decoded request to the handler above.
  Response handle(const Request& request) const;

  /// The learned per-dimension max-abs weights (exposed so tests can
  /// reproduce served distances through the offline kernels).
  const std::vector<double>& weights() const noexcept { return weights_; }

 private:
  void index_and_precompute();

  std::vector<ServedPatch> patches_;
  std::unordered_map<std::string_view, std::size_t> by_id_;

  /// Natural patches occupy patches_[0 .. natural_rows_); their scaled
  /// feature rows (natural_rows_ x dims) are the by-id query vectors,
  /// and their blocked pack backs the nearest scans.
  std::size_t natural_rows_ = 0;
  std::size_t dims_ = 0;
  feature::FeatureMatrix natural_features_;
  std::vector<double> weights_;
  std::vector<float> scaled_;
  core::PackedCorpus corpus_;

  StatsResponse stats_;
};

}  // namespace patchdb::serve
