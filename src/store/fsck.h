// Offline integrity verification for exported datasets and checkpoint
// directories — the `patchdb fsck` subcommand. A dataset check is
// load_patchdb's manifest walker (store/export.h) in collect-all mode,
// with the same checks and messages, a pack that holds more entries
// than the manifest lists included, plus fsck's own check of
// features.csv. So a dataset fsck passes is one load_patchdb accepts. A
// checkpoint is checked by read_checkpoint, any fingerprint.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

namespace patchdb::store {

struct FsckReport {
  std::size_t files_checked = 0;
  std::size_t bytes_checked = 0;
  std::size_t manifest_rows = 0;
  std::vector<std::string> errors;
  bool ok() const noexcept { return errors.empty(); }
};

/// Verify an exported dataset directory (manifest.csv present).
FsckReport fsck_dataset(const std::filesystem::path& root);

/// Dispatch on the directory's contents: dataset when manifest.csv is
/// present, checkpoint when checkpoint.csv is; both when both are.
/// A directory with neither yields a single error.
FsckReport fsck(const std::filesystem::path& path);

}  // namespace patchdb::store
