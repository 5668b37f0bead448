#include "store/fsck.h"

#include <stdexcept>
#include <string_view>
#include <utility>

#include "store/checkpoint.h"
#include "store/export.h"
#include "store/io.h"
#include "util/strings.h"

namespace patchdb::store {

namespace fs = std::filesystem;

FsckReport fsck_dataset(const fs::path& root) {
  FsckReport report;
  std::size_t natural_rows = 0;
  const ManifestWalk walk = walk_manifest(
      root,
      [&report](std::string problem) { report.errors.push_back(std::move(problem)); },
      [&](ManifestEntry&& entry) {
        ++report.manifest_rows;
        if (entry.component != kSynthetic) ++natural_rows;
      });
  report.files_checked = walk.files;
  report.bytes_checked = walk.bytes;
  if (!walk.opened) return report;

  // features.csv: sealed, versioned, one row per natural patch.
  try {
    const std::string features = read_file(root / "features.csv");
    ++report.files_checked;
    report.bytes_checked += features.size();
    std::size_t feature_rows = 0;
    for (std::string_view line : util::split_lines(
             open_sealed(features, store_version_line(), "features.csv"))) {
      if (!line.empty()) ++feature_rows;
    }
    if (feature_rows != natural_rows + 1) {  // + header
      report.errors.push_back(
          "features.csv: expected " + std::to_string(natural_rows) +
          " feature rows, found " +
          std::to_string(feature_rows == 0 ? 0 : feature_rows - 1));
    }
  } catch (const std::runtime_error& e) {
    report.errors.push_back(e.what());
  }
  return report;
}

FsckReport fsck(const fs::path& path) {
  const bool has_manifest = fs::exists(path / "manifest.csv");
  const bool has_checkpoint = fs::exists(checkpoint_path(path));
  FsckReport report;
  if (has_manifest) report = fsck_dataset(path);
  if (!has_manifest && !has_checkpoint) {
    report.errors.push_back("fsck: " + path.string() +
                            " holds neither a dataset (manifest.csv) nor a "
                            "checkpoint (checkpoint.csv)");
  }
  if (has_checkpoint) {
    try {
      const Verdicts verdicts = read_checkpoint(path, kAnyFingerprint);
      ++report.files_checked;
      report.bytes_checked += fs::file_size(checkpoint_path(path));
      report.manifest_rows +=
          verdicts.security.size() + verdicts.nonsecurity.size();
    } catch (const std::exception& e) {
      report.errors.push_back(e.what());
    }
  }
  return report;
}

}  // namespace patchdb::store
