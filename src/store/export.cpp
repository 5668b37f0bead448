#include "store/export.h"

#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "diff/parse.h"
#include "diff/render.h"
#include "feature/features.h"
#include "obs/metrics.h"
#include "store/csv.h"
#include "store/io.h"
#include "util/hash.h"
#include "util/strings.h"
#include "util/table.h"

namespace patchdb::store {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kVersionLine = "#patchdb.store.v2";
constexpr std::size_t kManifestFields = 9;

std::string manifest_row(const std::string& commit, const std::string& component,
                         bool is_security, int type, const std::string& repo,
                         const std::string& origin, int variant,
                         int modified_after, std::uint64_t checksum) {
  std::string row;
  row += csv_escape(commit);
  row += ',';
  row += csv_escape(component);
  row += ',';
  row += is_security ? "security" : "nonsecurity";
  row += ',';
  row += std::to_string(type);
  row += ',';
  row += csv_escape(repo);
  row += ',';
  row += csv_escape(origin);
  row += ',';
  row += std::to_string(variant);
  row += ',';
  row += std::to_string(modified_after);
  row += ',';
  row += util::to_hex(checksum);
  row += '\n';
  return row;
}

/// Write one patch file (atomically) and return its content checksum.
std::uint64_t write_patch_file(const fs::path& dir, const std::string& commit,
                               const diff::Patch& patch) {
  const std::string content = diff::render_patch(patch);
  atomic_write_file(dir / (commit + ".patch"), content);
  return util::fnv1a64(content);
}

/// Write one natural component's patch files, manifest rows and feature
/// rows. `rows` holds every natural patch's features in manifest order;
/// `next_row` is this component's first row, and advances past it.
void export_records(const std::vector<corpus::CommitRecord>& records,
                    const char* component, const fs::path& root,
                    const feature::FeatureMatrix& rows, std::size_t& next_row,
                    std::string& manifest, std::string& features) {
  const fs::path dir = root / component;
  fs::create_directories(dir);
  for (const corpus::CommitRecord& record : records) {
    const std::uint64_t checksum =
        write_patch_file(dir, record.patch.commit, record.patch);
    manifest += manifest_row(record.patch.commit, component,
                             record.truth.is_security,
                             static_cast<int>(record.truth.type), record.repo,
                             "", 0, 0, checksum);
    features += record.patch.commit;
    for (double value : rows[next_row++]) {
      features += ',';
      features += util::format_double(value, 6);
    }
    features += '\n';
  }
}

[[noreturn]] void malformed(std::size_t row, const std::string& why) {
  throw std::runtime_error("store: malformed manifest row " +
                           std::to_string(row) + ": " + why);
}

/// Commits double as file names; restrict to the hex ids the pipeline
/// emits so a tampered manifest cannot escape the dataset directory.
void check_commit_field(std::string_view commit, std::size_t row) {
  if (commit.empty()) malformed(row, "empty commit");
  for (char c : commit) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) malformed(row, "commit is not lowercase hex");
  }
}

corpus::PatchType parse_type_field(std::string_view text, std::size_t row) {
  const long long value = parse_int_field(text, 1000, "type");
  const bool security = value >= 1 && value <= static_cast<long long>(
                                                  corpus::kSecurityTypeCount);
  const bool nonsecurity =
      value >= static_cast<long long>(corpus::PatchType::kNewFeature) &&
      value <= static_cast<long long>(corpus::PatchType::kDefensive);
  if (!security && !nonsecurity) {
    malformed(row, "unknown patch type " + std::string(text));
  }
  return static_cast<corpus::PatchType>(value);
}

std::uint64_t parse_checksum_field(std::string_view text, std::size_t row) {
  if (text.size() != 16) malformed(row, "malformed checksum");
  std::uint64_t value = 0;
  for (char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      malformed(row, "malformed checksum");
    }
  }
  return value;
}

}  // namespace

std::string_view store_version_line() { return kVersionLine; }

std::string manifest_header() {
  return "commit,component,label,type,repo,origin,variant,modified_after,checksum\n";
}

ExportStats export_patchdb(const core::PatchDb& db, const fs::path& root) {
  ExportStats stats;
  stats.root = root;
  fs::create_directories(root);

  std::string manifest(kVersionLine);
  manifest += '\n';
  manifest += manifest_header();

  std::string features(kVersionLine);
  features += '\n';
  features += "commit";
  for (std::string_view name : feature::feature_names()) {
    features += ',';
    features += name;
  }
  features += '\n';

  // Every natural patch's row comes from one pool batch, in manifest
  // order.
  const std::pair<const char*, const std::vector<corpus::CommitRecord>*> natural[] = {
      {"nvd", &db.nvd_security},
      {"wild", &db.wild_security},
      {"nonsecurity", &db.nonsecurity},
  };
  std::vector<const diff::Patch*> patches;
  for (const auto& [component, records] : natural) {
    for (const corpus::CommitRecord& record : *records) patches.push_back(&record.patch);
  }
  const feature::FeatureMatrix rows = feature::extract_all(patches);
  for (const auto& [component, records] : natural) {
    export_records(*records, component, root, rows, stats.feature_rows, manifest,
                   features);
  }
  stats.patches_written = stats.feature_rows;

  const fs::path synth_dir = root / "synthetic";
  fs::create_directories(synth_dir);
  for (const synth::SyntheticPatch& s : db.synthetic) {
    const std::uint64_t checksum =
        write_patch_file(synth_dir, s.patch.commit, s.patch);
    manifest += manifest_row(s.patch.commit, "synthetic", s.truth.is_security,
                             static_cast<int>(s.truth.type), "", s.origin_commit,
                             static_cast<int>(s.variant), s.modified_after ? 1 : 0,
                             checksum);
    ++stats.patches_written;
  }

  // The manifest is the commit point: it lands last, atomically, so an
  // interrupted export never publishes a manifest naming absent files.
  atomic_write_file(root / "features.csv", with_checksum_trailer(std::move(features)));
  atomic_write_file(root / "manifest.csv", with_checksum_trailer(std::move(manifest)));
  return stats;
}

LoadedPatchDb load_patchdb(const fs::path& root) {
  const std::string sealed = read_file(root / "manifest.csv");
  const std::string_view body = strip_checksum_trailer(sealed, "manifest.csv");
  if (!util::starts_with(body, kVersionLine) ||
      body.size() <= kVersionLine.size() || body[kVersionLine.size()] != '\n') {
    throw std::runtime_error("store: unsupported manifest version in " +
                             root.string() + " (expected " +
                             std::string(kVersionLine) + ")");
  }
  const auto rows = csv_parse(body.substr(kVersionLine.size() + 1));
  if (rows.empty() ||
      util::join(rows[0], ",") + "\n" != manifest_header()) {
    throw std::runtime_error("store: bad manifest header in " + root.string());
  }

  LoadedPatchDb db;
  // The commit is the served key: it must be unique across components.
  std::unordered_map<std::string_view, std::size_t> first_row;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto& fields = rows[i];
    // Row numbers in errors count the version line and the header.
    const std::size_t row_no = i + 2;
    if (fields.size() != kManifestFields) {
      malformed(row_no, "expected " + std::to_string(kManifestFields) +
                            " fields, got " + std::to_string(fields.size()));
    }
    const std::string& commit = fields[0];
    check_commit_field(commit, row_no);
    const auto [first, fresh] = first_row.emplace(commit, row_no);
    if (!fresh) {
      malformed(row_no, "duplicate commit " + commit + " (first listed at row " +
                            std::to_string(first->second) + ")");
    }
    const std::string& component = fields[1];
    if (component != "nvd" && component != "wild" && component != "nonsecurity" &&
        component != "synthetic") {
      throw std::runtime_error("store: unknown component '" + component + "'");
    }
    bool is_security = false;
    if (fields[2] == "security") {
      is_security = true;
    } else if (fields[2] != "nonsecurity") {
      malformed(row_no, "unknown label '" + fields[2] + "'");
    }
    const corpus::PatchType type = parse_type_field(fields[3], row_no);
    const long long variant = parse_int_field(fields[6], 1000, "variant");
    if (fields[7] != "0" && fields[7] != "1") {
      malformed(row_no, "modified_after must be 0 or 1");
    }
    const std::uint64_t recorded_checksum = parse_checksum_field(fields[8], row_no);

    const fs::path patch_path = root / component / (commit + ".patch");
    const std::string content = read_file(patch_path);
    if (util::fnv1a64(content) != recorded_checksum) {
      PATCHDB_COUNTER_ADD("store.checksum_failures", 1);
      throw std::runtime_error("store: checksum mismatch for " +
                               patch_path.string() +
                               " (corrupted or truncated patch file)");
    }
    diff::Patch patch = diff::parse_patch(content);

    if (component == "synthetic") {
      if (variant < 1 || variant > static_cast<long long>(synth::kVariantCount)) {
        malformed(row_no, "unknown synthesis variant " + fields[6]);
      }
      synth::SyntheticPatch s;
      s.patch = std::move(patch);
      s.truth.is_security = is_security;
      s.truth.type = type;
      s.origin_commit = fields[5];
      s.variant = static_cast<synth::IfVariant>(variant);
      s.modified_after = fields[7] == "1";
      db.synthetic.push_back(std::move(s));
      continue;
    }
    if (variant != 0) malformed(row_no, "natural patch with nonzero variant");

    corpus::CommitRecord record;
    record.patch = std::move(patch);
    record.truth.is_security = is_security;
    record.truth.type = type;
    record.repo = fields[4];
    if (component == "nvd") {
      db.nvd_security.push_back(std::move(record));
    } else if (component == "wild") {
      db.wild_security.push_back(std::move(record));
    } else {
      db.nonsecurity.push_back(std::move(record));
    }
  }
  return db;
}

}  // namespace patchdb::store
