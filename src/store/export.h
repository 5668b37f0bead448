// On-disk dataset layout — the release format. A PatchDB export is a
// directory tree mirroring how the real PatchDB is published (one
// `.patch` file per commit, grouped by component, plus CSV metadata):
//
//   <root>/
//     manifest.csv             # version line, header, one row per patch
//                              # (id, component, label, type, repo,
//                              # origin, variant, modified_after,
//                              # fnv1a64 checksum of the patch file),
//                              # sealed with a checksum trailer
//     features.csv             # one row per natural patch: id + 60
//                              # features; same version line + trailer
//     nvd/<commit>.patch
//     wild/<commit>.patch
//     nonsecurity/<commit>.patch
//     synthetic/<commit>.patch
//
// Format v2 (crash-safe store): string fields are CSV-escaped, every
// file is written atomically (temp + rename) with the manifest last so
// a killed export never publishes a manifest describing missing files,
// and loads verify both the manifest's own trailer checksum and each
// patch file's recorded content checksum. Parsing is strict: malformed
// numeric fields, unknown labels/components/types, and checksum
// mismatches all throw instead of loading as garbage.
//
// The manifest has one decoder, walk_manifest. load_patchdb runs it and
// throws the first problem; fsck (store/fsck.h) runs it in collect-all
// mode, plus its own orphan and features.csv checks.
//
// Exports round-trip: load_patchdb(export_patchdb(db)) reproduces every
// patch byte-for-byte (modulo snapshots, which are not exported — they
// are reconstruction artifacts of the simulator, not dataset content).
#pragma once

#include <cstddef>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/patchdb.h"

namespace patchdb::store {

/// The dataset's components, in manifest order: the three natural ones,
/// then the synthetic one. Each is a directory of `<commit>.patch` files.
inline constexpr std::string_view kComponents[] = {"nvd", "wild", "nonsecurity",
                                                   "synthetic"};
/// Index of "synthetic" in kComponents; every lower index is natural.
inline constexpr std::size_t kSynthetic = 3;

struct ExportStats {
  std::size_t patches_written = 0;
  std::size_t feature_rows = 0;
  std::filesystem::path root;
};

/// Write the dataset under `root` (created if absent; existing files are
/// overwritten). Throws std::runtime_error on I/O failure.
ExportStats export_patchdb(const core::PatchDb& db, const std::filesystem::path& root);

/// A dataset loaded back from disk. Snapshots are empty (see above);
/// synthetic truth/variant/origin metadata is restored from the manifest.
struct LoadedPatchDb {
  std::vector<corpus::CommitRecord> nvd_security;
  std::vector<corpus::CommitRecord> wild_security;
  std::vector<corpus::CommitRecord> nonsecurity;
  std::vector<synth::SyntheticPatch> synthetic;
};

/// Read an exported dataset. Throws std::runtime_error with
/// walk_manifest's message for the first problem it finds.
LoadedPatchDb load_patchdb(const std::filesystem::path& root);

/// One manifest row as walk_manifest decodes it, with its patch parsed.
struct ManifestEntry {
  std::size_t component = 0;  // index into kComponents
  std::string commit;
  corpus::GroundTruth truth;
  std::string repo;    // natural rows
  std::string origin;  // synthetic rows: the origin commit
  synth::IfVariant variant = synth::IfVariant::kOrZero;  // synthetic rows
  bool modified_after = false;                          // synthetic rows
  diff::Patch patch;
};

/// What walk_manifest read. `opened`: the manifest passed its trailer,
/// version and header checks, so its rows were walked.
struct ManifestWalk {
  bool opened = false;
  std::size_t files = 0;  // files read: the manifest and each patch file
  std::size_t bytes = 0;  // their bytes
};

/// Open the sealed manifest under `root`, check its header, then walk
/// its rows: check every field, reject a repeated commit, read each
/// listed patch file, verify its checksum, parse it and check that it
/// carries its row's commit. Each problem
/// goes to `problem` as "store: manifest.csv row N: ...", naming the
/// patch file where there is one; a problem with the whole manifest ends
/// the walk. Then each row whose commit is new and whose component is
/// known goes to `entry`, and is dropped when it returns. A throwing
/// `problem` (load) sees only whole entries; one that returns (fsck)
/// also gets entries whose failed fields are unset.
ManifestWalk walk_manifest(const std::filesystem::path& root,
                           const std::function<void(std::string)>& problem,
                           const std::function<void(ManifestEntry&&)>& entry);

/// First line of manifest.csv and features.csv ("#patchdb.store.v2").
std::string_view store_version_line();

/// Column header of the manifest (exposed for tests).
std::string manifest_header();

}  // namespace patchdb::store
