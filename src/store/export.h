// On-disk dataset layout — the release format. A PatchDB export is a
// directory per component, each holding that component's patches in
// one pack, plus CSV metadata:
//
//   <root>/
//     manifest.csv             # version line, header, one row per patch
//                              # (id, component, label, type, repo,
//                              # origin, variant, modified_after,
//                              # fnv1a64 checksum of the patch),
//                              # sealed with a checksum trailer
//     features.csv             # one row per natural patch: id + 60
//                              # features; same version line + trailer.
//                              # The rows are the ones core::PatchDb
//                              # carries, which build_patchdb takes
//                              # from the augmentation loop; a PatchDb
//                              # without rows is featurized here
//     nvd/patches.pack
//     wild/patches.pack
//     nonsecurity/patches.pack
//     synthetic/patches.pack
//
// A pack is "#patchdb.pack.v1\n", then the rendered patches back to
// back, then an offset table (one line of 16 hex digits per patch: the
// byte offset where its body ends), then a footer line
// "#pack <16 hex entry count> <16 hex fnv1a64>\n" whose checksum covers
// the version line, the table and the footer up to the checksum. The
// bodies are not hashed twice: the manifest's per-row checksum covers
// each one. Rows are positional: the k-th manifest row of a component
// is entry k of its pack.
//
// Format v2 (crash-safe store): string fields are CSV-escaped; every
// file goes through store::atomic_write_file (temp, fsync, rename,
// directory fsync), in the order packs, features.csv, manifest.csv, so a
// killed export never publishes a manifest describing absent patches;
// and loads verify the manifest's trailer, each pack's footer and each
// patch's recorded checksum. Parsing is strict: malformed numeric
// fields, unknown labels/components/types, and checksum mismatches all
// throw instead of loading as garbage. A directory without packs (an
// export from before them, one .patch file per commit) is refused with
// a message that names the missing pack and asks for a re-export.
//
// The manifest has one decoder, walk_manifest. load_patchdb runs it and
// throws the first problem; fsck (store/fsck.h) runs it in collect-all
// mode, plus its own features.csv checks.
//
// Exports round-trip: load_patchdb(export_patchdb(db)) reproduces every
// patch byte-for-byte (modulo snapshots, which are not exported — they
// are reconstruction artifacts of the simulator, not dataset content).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/patchdb.h"

namespace patchdb::store {

/// The dataset's components, in manifest order: the three natural ones,
/// then the synthetic one. Each is a directory holding one pack.
inline constexpr std::string_view kComponents[] = {"nvd", "wild", "nonsecurity",
                                                   "synthetic"};
/// Index of "synthetic" in kComponents; every lower index is natural.
inline constexpr std::size_t kSynthetic = 3;

/// `<root>/<kComponents[component]>/patches.pack`.
std::filesystem::path pack_path(const std::filesystem::path& root, std::size_t component);

/// Write the pack at `path` through atomic_write_file: `count` bodies,
/// body(0) to body(count - 1), which the default pool calls a batch at
/// a time, concurrently; each batch reaches the file in one write.
/// Returns each body's FNV-1a64, the checksum its manifest row records.
/// export_patchdb writes every pack through it.
std::vector<std::uint64_t> write_pack(
    const std::filesystem::path& path, std::size_t count,
    const std::function<std::string(std::size_t)>& body);

struct ExportStats {
  std::size_t patches_written = 0;
  std::size_t feature_rows = 0;
  std::filesystem::path root;
};

/// Write the dataset under `root` (created if absent; existing files are
/// overwritten): the four packs, then features.csv, then manifest.csv,
/// each durably. features.csv formats db.features, or the rows
/// feature::extract_all gives when db carries none; either way a row
/// equals feature::extract of its patch. Throws std::runtime_error on
/// I/O failure, and std::invalid_argument, before writing anything,
/// when db carries rows but not one Table I row per natural patch.
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
  std::size_t files = 0;  // files read: the manifest and each pack
  std::size_t bytes = 0;  // their bytes
};

/// Open the sealed manifest under `root`, check its header, then walk
/// its rows: check every field, reject a repeated commit, look up each
/// row's patch in its component's pack (read once, footer and table
/// checked), verify its checksum, parse it and check that it carries
/// its row's commit. Each row problem goes to `problem` as
/// "store: manifest.csv row N: ...", naming the pack entry where there
/// is one; a problem with the whole manifest ends the walk. A pack that
/// cannot be opened is reported once, by path. After the rows, every
/// pack must exist and hold no more entries than its component's rows.
/// Each row whose commit is new and whose component is known goes to
/// `entry`, and is dropped when it returns. A throwing `problem` (load)
/// sees only whole entries; one that returns (fsck) also gets entries
/// whose failed fields are unset.
ManifestWalk walk_manifest(const std::filesystem::path& root,
                           const std::function<void(std::string)>& problem,
                           const std::function<void(ManifestEntry&&)>& entry);

/// First line of manifest.csv and features.csv ("#patchdb.store.v2").
std::string_view store_version_line();

/// Column header of the manifest (exposed for tests).
std::string manifest_header();

}  // namespace patchdb::store
