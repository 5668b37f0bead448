#include "store/export.h"

#include <algorithm>
#include <array>
#include <iterator>
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

/// A dataset's natural record vectors, indexed like kComponents.
template <typename Db>
auto natural_records(Db& db) {
  return std::array{&db.nvd_security, &db.wild_security, &db.nonsecurity};
}

std::string manifest_row(const std::string& commit, std::string_view component,
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
                    std::string_view component, const fs::path& root,
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

/// Commits double as file names; restrict to the hex ids the pipeline
/// emits so a tampered manifest cannot escape the dataset directory.
bool is_lower_hex(std::string_view text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

/// A small non-negative integer field, or -1 for text parse_int_field
/// rejects.
long long small_int_or_negative(std::string_view text) {
  try {
    return parse_int_field(text, 1000, "manifest");
  } catch (const std::runtime_error&) {
    return -1;
  }
}

bool known_type(long long type) {
  return (type >= 1 && type <= static_cast<long long>(corpus::kSecurityTypeCount)) ||
         (type >= static_cast<long long>(corpus::PatchType::kNewFeature) &&
          type <= static_cast<long long>(corpus::PatchType::kDefensive));
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

  std::string manifest = manifest_header();
  std::string features = "commit";
  for (std::string_view name : feature::feature_names()) {
    features += ',';
    features += name;
  }
  features += '\n';

  // Every natural patch's row comes from one pool batch, in manifest
  // order.
  const auto natural = natural_records(db);
  std::vector<const diff::Patch*> patches;
  for (const auto* records : natural) {
    for (const corpus::CommitRecord& record : *records) patches.push_back(&record.patch);
  }
  const feature::FeatureMatrix rows = feature::extract_all(patches);
  for (std::size_t c = 0; c < natural.size(); ++c) {
    export_records(*natural[c], kComponents[c], root, rows, stats.feature_rows,
                   manifest, features);
  }
  stats.patches_written = stats.feature_rows;

  const fs::path synth_dir = root / kComponents[kSynthetic];
  fs::create_directories(synth_dir);
  for (const synth::SyntheticPatch& s : db.synthetic) {
    const std::uint64_t checksum =
        write_patch_file(synth_dir, s.patch.commit, s.patch);
    manifest += manifest_row(s.patch.commit, kComponents[kSynthetic],
                             s.truth.is_security, static_cast<int>(s.truth.type),
                             "", s.origin_commit, static_cast<int>(s.variant),
                             s.modified_after ? 1 : 0, checksum);
    ++stats.patches_written;
  }

  // The manifest is the commit point: it lands last, atomically, so an
  // interrupted export never publishes a manifest naming absent files.
  atomic_write_file(root / "features.csv", seal(kVersionLine, features));
  atomic_write_file(root / "manifest.csv", seal(kVersionLine, manifest));
  return stats;
}

ManifestWalk walk_manifest(const fs::path& root,
                           const std::function<void(std::string)>& problem,
                           const std::function<void(ManifestEntry&&)>& entry) {
  ManifestWalk walk;
  std::string sealed;
  std::string_view body;
  try {
    sealed = read_file(root / "manifest.csv");
    ++walk.files;
    walk.bytes += sealed.size();
    body = open_sealed(sealed, kVersionLine, "manifest.csv");
  } catch (const std::runtime_error& e) {
    problem(e.what());
    return walk;
  }
  std::vector<std::vector<std::string>> rows;
  try {
    rows = csv_parse(body);
  } catch (const std::runtime_error& e) {
    problem(std::string("store: manifest.csv: ") + e.what());
    return walk;
  }
  if (rows.empty() || util::join(rows[0], ",") + "\n" != manifest_header()) {
    problem("store: manifest.csv: bad header");
    return walk;
  }
  walk.opened = true;

  // The commit is the served key: it must be unique across components.
  std::unordered_map<std::string_view, std::size_t> first_row;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const std::vector<std::string>& fields = rows[i];
    // Row numbers count the version line and the header.
    const std::size_t row_no = i + 2;
    const auto report = [&problem, row_no](const std::string& why) {
      problem("store: manifest.csv row " + std::to_string(row_no) + ": " + why);
    };
    if (fields.size() != kManifestFields) {
      report("expected " + std::to_string(kManifestFields) + " fields, got " +
             std::to_string(fields.size()));
      continue;
    }
    ManifestEntry decoded;
    bool names_file = true;
    decoded.commit = fields[0];
    if (!is_lower_hex(fields[0])) {
      report("commit is not lowercase hex");
      names_file = false;
    } else if (const auto [first, fresh] = first_row.emplace(fields[0], row_no);
               !fresh) {
      report("duplicate commit " + fields[0] + " (first listed at row " +
             std::to_string(first->second) + ")");
      names_file = false;
    }
    const auto* component =
        std::find(std::begin(kComponents), std::end(kComponents), fields[1]);
    if (component == std::end(kComponents)) {
      report("unknown component '" + fields[1] + "'");
      names_file = false;
    } else {
      decoded.component = static_cast<std::size_t>(component - std::begin(kComponents));
    }
    if (fields[2] == "security") {
      decoded.truth.is_security = true;
    } else if (fields[2] != "nonsecurity") {
      report("unknown label '" + fields[2] + "'");
    }
    const long long type = small_int_or_negative(fields[3]);
    if (known_type(type)) {
      decoded.truth.type = static_cast<corpus::PatchType>(type);
    } else {
      report("unknown patch type '" + fields[3] + "'");
    }
    decoded.repo = fields[4];
    decoded.origin = fields[5];
    const long long variant = small_int_or_negative(fields[6]);
    if (decoded.component != kSynthetic) {
      if (variant != 0) report("natural patch with nonzero variant '" + fields[6] + "'");
    } else if (variant < 1 || variant > static_cast<long long>(synth::kVariantCount)) {
      report("unknown synthesis variant '" + fields[6] + "'");
    } else {
      decoded.variant = static_cast<synth::IfVariant>(variant);
    }
    if (fields[7] != "0" && fields[7] != "1") {
      report("modified_after must be 0 or 1");
    }
    decoded.modified_after = fields[7] == "1";
    std::uint64_t checksum = 0;
    const bool has_checksum = util::parse_hex(fields[8], checksum);
    if (!has_checksum) report("malformed checksum");
    if (!names_file) continue;

    const fs::path path =
        root / kComponents[decoded.component] / (decoded.commit + ".patch");
    std::string content;
    bool readable = true;
    try {
      content = read_file(path);
    } catch (const std::runtime_error&) {
      readable = false;
      report("cannot read " + path.string());
    }
    if (readable) {
      ++walk.files;
      walk.bytes += content.size();
      if (has_checksum && util::fnv1a64(content) != checksum) {
        PATCHDB_COUNTER_ADD("store.checksum_failures", 1);
        report("checksum mismatch for " + path.string() +
               " (corrupted or truncated patch file)");
      } else {
        bool parsed = true;
        try {
          decoded.patch = diff::parse_patch(content);
        } catch (const std::exception& e) {
          parsed = false;
          report("cannot parse " + path.string() + ": " + e.what());
        }
        // The commit is the served key: a patch must carry its row's.
        if (parsed && decoded.patch.commit != decoded.commit) {
          report(path.string() + " carries commit '" + decoded.patch.commit +
                 "', not its row's");
        }
      }
    }
    entry(std::move(decoded));
  }
  return walk;
}

LoadedPatchDb load_patchdb(const fs::path& root) {
  LoadedPatchDb db;
  const auto natural = natural_records(db);
  walk_manifest(
      root, [](std::string problem) { throw std::runtime_error(problem); },
      [&](ManifestEntry&& decoded) {
        if (decoded.component == kSynthetic) {
          db.synthetic.push_back({.patch = std::move(decoded.patch),
                                  .origin_commit = std::move(decoded.origin),
                                  .variant = decoded.variant,
                                  .modified_after = decoded.modified_after,
                                  .truth = decoded.truth});
        } else {
          corpus::CommitRecord& record = natural[decoded.component]->emplace_back();
          record.patch = std::move(decoded.patch);
          record.truth = decoded.truth;
          record.repo = std::move(decoded.repo);
        }
      });
  return db;
}

}  // namespace patchdb::store
