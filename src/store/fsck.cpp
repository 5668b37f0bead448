#include "store/fsck.h"

#include <set>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "corpus/taxonomy.h"
#include "store/checkpoint.h"
#include "store/csv.h"
#include "store/export.h"
#include "store/io.h"
#include "synth/variants.h"
#include "util/hash.h"
#include "util/strings.h"

namespace patchdb::store {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kComponents[] = {"nvd", "wild", "nonsecurity",
                                            "synthetic"};

bool is_hex16(std::string_view text, std::uint64_t& out) {
  if (text.size() != 16) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  out = value;
  return true;
}

bool is_lower_hex(std::string_view text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

/// Strip trailer + version line of a sealed store document; returns the
/// CSV payload or records an error.
bool unseal(const std::string& sealed, std::string_view version_line,
            const std::string& name, FsckReport& report, std::string_view& csv) {
  std::string_view body;
  try {
    body = strip_checksum_trailer(sealed, name);
  } catch (const std::exception& e) {
    report.errors.push_back(e.what());
    return false;
  }
  if (!util::starts_with(body, version_line) ||
      body.size() <= version_line.size() ||
      body[version_line.size()] != '\n') {
    report.errors.push_back(name + ": unsupported or missing version line");
    return false;
  }
  csv = body.substr(version_line.size() + 1);
  return true;
}

}  // namespace

FsckReport fsck_dataset(const fs::path& root) {
  FsckReport report;
  report.root = root;

  std::string sealed;
  try {
    sealed = read_file(root / "manifest.csv");
  } catch (const std::exception& e) {
    report.errors.push_back(e.what());
    return report;
  }
  ++report.files_checked;
  report.bytes_checked += sealed.size();

  std::string_view csv;
  if (!unseal(sealed, store_version_line(), "manifest.csv", report, csv)) {
    return report;
  }
  std::vector<std::vector<std::string>> rows;
  try {
    rows = csv_parse(csv);
  } catch (const std::exception& e) {
    report.errors.push_back(std::string("manifest.csv: ") + e.what());
    return report;
  }
  if (rows.empty() || util::join(rows[0], ",") + "\n" != manifest_header()) {
    report.errors.push_back("manifest.csv: bad header");
    return report;
  }

  std::set<std::pair<std::string, std::string>> listed;  // (component, commit)
  // The commit is the served key: it must be unique across components.
  std::unordered_map<std::string_view, std::size_t> first_row;
  std::size_t natural_rows = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto& fields = rows[i];
    const std::string where = "manifest.csv row " + std::to_string(i + 2);
    ++report.manifest_rows;
    if (fields.size() != 9) {
      report.errors.push_back(where + ": expected 9 fields, got " +
                              std::to_string(fields.size()));
      continue;
    }
    const std::string& commit = fields[0];
    const std::string& component = fields[1];
    bool row_ok = true;
    if (!is_lower_hex(commit)) {
      report.errors.push_back(where + ": commit is not lowercase hex");
      row_ok = false;
    }
    bool component_ok = false;
    for (std::string_view known : kComponents) component_ok |= component == known;
    if (!component_ok) {
      report.errors.push_back(where + ": unknown component '" + component + "'");
      row_ok = false;
    }
    if (fields[2] != "security" && fields[2] != "nonsecurity") {
      report.errors.push_back(where + ": unknown label '" + fields[2] + "'");
    }
    try {
      const long long type = parse_int_field(fields[3], 1000, "type");
      const bool known =
          (type >= 1 && type <= static_cast<long long>(corpus::kSecurityTypeCount)) ||
          (type >= static_cast<long long>(corpus::PatchType::kNewFeature) &&
           type <= static_cast<long long>(corpus::PatchType::kDefensive));
      if (!known) {
        report.errors.push_back(where + ": unknown patch type " + fields[3]);
      }
      const long long variant = parse_int_field(fields[6], 1000, "variant");
      if (component == "synthetic"
              ? (variant < 1 || variant > static_cast<long long>(synth::kVariantCount))
              : variant != 0) {
        report.errors.push_back(where + ": bad variant " + fields[6]);
      }
    } catch (const std::exception& e) {
      report.errors.push_back(where + ": " + e.what());
    }
    if (fields[7] != "0" && fields[7] != "1") {
      report.errors.push_back(where + ": modified_after must be 0 or 1");
    }
    std::uint64_t recorded = 0;
    if (!is_hex16(fields[8], recorded)) {
      report.errors.push_back(where + ": malformed checksum");
      row_ok = false;
    }
    if (!row_ok) continue;
    if (component != "synthetic") ++natural_rows;
    listed.emplace(component, commit);
    const auto [first, fresh] = first_row.emplace(commit, i + 2);
    if (!fresh) {
      report.errors.push_back(where + ": duplicate commit " + commit +
                              " (first listed at row " +
                              std::to_string(first->second) + ")");
      continue;
    }

    const fs::path patch_path = root / component / (commit + ".patch");
    std::string content;
    try {
      content = read_file(patch_path);
    } catch (const std::exception& e) {
      report.errors.push_back(e.what());
      continue;
    }
    ++report.files_checked;
    report.bytes_checked += content.size();
    if (util::fnv1a64(content) != recorded) {
      report.errors.push_back(where + ": checksum mismatch for " +
                              patch_path.string() +
                              " (corrupted or truncated patch file)");
    }
  }

  // Orphans: patch files on disk the manifest does not describe.
  for (std::string_view component : kComponents) {
    const fs::path dir = root / component;
    if (!fs::is_directory(dir)) continue;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      const fs::path& p = entry.path();
      if (p.extension() != ".patch") continue;
      if (!listed.count({std::string(component), p.stem().string()})) {
        report.errors.push_back("orphaned patch file " + p.string());
      }
    }
  }

  // features.csv: sealed, versioned, one row per natural patch.
  std::string features;
  try {
    features = read_file(root / "features.csv");
  } catch (const std::exception& e) {
    report.errors.push_back(e.what());
    return report;
  }
  ++report.files_checked;
  report.bytes_checked += features.size();
  std::string_view features_csv;
  if (unseal(features, store_version_line(), "features.csv", report,
             features_csv)) {
    std::size_t feature_rows = 0;
    for (std::string_view line : util::split_lines(features_csv)) {
      if (!line.empty()) ++feature_rows;
    }
    if (feature_rows != natural_rows + 1) {  // + header
      report.errors.push_back(
          "features.csv: expected " + std::to_string(natural_rows) +
          " feature rows, found " +
          std::to_string(feature_rows == 0 ? 0 : feature_rows - 1));
    }
  }
  return report;
}

FsckReport fsck_checkpoint_dir(const fs::path& dir) {
  FsckReport report;
  report.root = dir;
  try {
    const std::string sealed = read_file(checkpoint_path(dir));
    ++report.files_checked;
    report.bytes_checked += sealed.size();
    const core::LoopCheckpoint cp = read_checkpoint(dir, kAnyFingerprint);
    report.manifest_rows = cp.wild_security.size() + cp.nonsecurity.size() +
                           cp.pool.size();
  } catch (const std::exception& e) {
    report.errors.push_back(e.what());
  }
  return report;
}

FsckReport fsck(const fs::path& path) {
  const bool has_manifest = fs::exists(path / "manifest.csv");
  const bool has_checkpoint = fs::exists(checkpoint_path(path));
  if (!has_manifest && !has_checkpoint) {
    FsckReport report;
    report.root = path;
    report.errors.push_back("fsck: " + path.string() +
                            " holds neither a dataset (manifest.csv) nor a "
                            "checkpoint (checkpoint.csv)");
    return report;
  }
  FsckReport report;
  if (has_manifest) report = fsck_dataset(path);
  if (has_checkpoint) {
    FsckReport cp = fsck_checkpoint_dir(path);
    report.root = path;
    report.files_checked += cp.files_checked;
    report.bytes_checked += cp.bytes_checked;
    report.manifest_rows += cp.manifest_rows;
    report.errors.insert(report.errors.end(), cp.errors.begin(), cp.errors.end());
  }
  return report;
}

}  // namespace patchdb::store
