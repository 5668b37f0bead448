#include "store/export.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <unordered_map>
#include <utility>
#include <vector>

#include "diff/parse.h"
#include "diff/render.h"
#include "feature/features.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/csv.h"
#include "store/io.h"
#include "util/hash.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace patchdb::store {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kVersionLine = "#patchdb.store.v2";
constexpr std::size_t kManifestFields = 9;

// A pack: its version line, the bodies back to back, one table line per
// entry (the offset where its body ends), then the footer: the entry
// count and the FNV-1a64 of the version line, the table and the
// footer's own text up to the checksum.
constexpr std::string_view kPackVersionLine = "#patchdb.pack.v1\n";
constexpr std::string_view kFooterTag = "#pack ";
constexpr std::size_t kHex = 16;  // the digits of util::to_hex
// A table line: an end offset and a newline.
constexpr std::size_t kTableLine = kHex + 1;
// The footer's checked text: the tag, the count and a space; then the
// checksum and a newline.
constexpr std::size_t kFooterChecked = kFooterTag.size() + kHex + 1;
constexpr std::size_t kFooterSize = kFooterChecked + kHex + 1;
// Bodies are rendered and hashed on the pool this many at a time, then
// written in order, one write per batch: enough to keep the workers
// busy, few enough to keep the pack out of memory.
constexpr std::size_t kPackBatch = 1024;
// A reader holds about this many bytes of a pack's bodies at a time.
constexpr std::size_t kReadWindow = std::size_t{1} << 18;

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

std::uint64_t pack_checksum(std::string_view version, std::string_view table,
                            std::string_view footer_text) {
  return util::fnv1a64(footer_text, util::fnv1a64(table, util::fnv1a64(version)));
}

/// One component's pack, open and checked. Its version line, offset
/// table and footer are read when it opens; its bodies, which the
/// walker asks for in order, through a window of about kReadWindow
/// bytes, so a reader never holds the whole pack.
class PackReader {
 public:
  /// Throws std::runtime_error naming `path`.
  explicit PackReader(const fs::path& path);

  std::size_t entries() const noexcept { return ends_.size(); }
  std::size_t bytes() const noexcept { return size_; }

  /// Entry k's body, valid until the next call; nullopt when the read
  /// fails.
  std::optional<std::string_view> entry(std::size_t k);

 private:
  /// `size` bytes at `offset`, into `out`; false when the read fails.
  bool read(std::size_t offset, std::size_t size, std::string& out);

  fs::path path_;
  std::ifstream in_;
  std::size_t size_ = 0;
  std::vector<std::size_t> ends_;  // entry k ends at ends_[k]
  std::string window_;
  std::size_t window_begin_ = 0;
};

PackReader::PackReader(const fs::path& path) : path_(path), in_(path, std::ios::binary) {
  std::error_code ec;
  size_ = static_cast<std::size_t>(fs::file_size(path, ec));
  if (!in_ || ec) {
    throw std::runtime_error("store: cannot read " + path.string() +
                             " (an export from before packs keeps one .patch file "
                             "per commit: re-export the dataset)");
  }
  const auto fail = [&path](const char* why) {
    PATCHDB_COUNTER_ADD("store.checksum_failures", 1);
    throw std::runtime_error("store: " + path.string() + ": " + why);
  };
  const auto read_or_throw = [this](std::size_t offset, std::size_t size,
                                    std::string& out) {
    if (!read(offset, size, out)) {
      throw std::runtime_error("store: cannot read " + path_.string());
    }
  };
  if (size_ < kPackVersionLine.size() + kFooterSize) fail("truncated pack");
  std::string footer;
  read_or_throw(size_ - kFooterSize, kFooterSize, footer);
  std::uint64_t count = 0;
  std::uint64_t recorded = 0;
  if (!footer.starts_with(kFooterTag) ||
      !util::parse_hex(std::string_view(footer).substr(kFooterTag.size(), kHex), count) ||
      footer[kFooterChecked - 1] != ' ' ||
      !util::parse_hex(std::string_view(footer).substr(kFooterChecked, kHex), recorded) ||
      footer.back() != '\n') {
    fail("missing or malformed footer (corrupted or truncated pack)");
  }
  const std::size_t room = size_ - kPackVersionLine.size() - kFooterSize;
  if (count > room / kTableLine) fail("footer counts more entries than the pack holds");
  const std::size_t table_begin = size_ - kFooterSize - count * kTableLine;
  std::string version;
  std::string table;
  read_or_throw(0, kPackVersionLine.size(), version);
  read_or_throw(table_begin, count * kTableLine, table);
  if (pack_checksum(version, table, std::string_view(footer).substr(0, kFooterChecked)) !=
      recorded) {
    fail("checksum mismatch (corrupted or truncated pack)");
  }
  if (version != kPackVersionLine) {
    throw std::runtime_error(
        "store: " + path.string() + ": unsupported version (expected " +
        std::string(kPackVersionLine.substr(0, kPackVersionLine.size() - 1)) + ")");
  }
  ends_.reserve(count);
  std::size_t previous = kPackVersionLine.size();
  for (std::size_t k = 0; k < count; ++k) {
    const std::string_view line =
        std::string_view(table).substr(k * kTableLine, kTableLine);
    std::uint64_t end = 0;
    if (!util::parse_hex(line.substr(0, kHex), end) || line.back() != '\n' ||
        end < previous || end > table_begin) {
      fail("malformed offset table");
    }
    ends_.push_back(previous = end);
  }
  if (previous != table_begin) fail("malformed offset table");
}

std::optional<std::string_view> PackReader::entry(std::size_t k) {
  const std::size_t begin = k == 0 ? kPackVersionLine.size() : ends_[k - 1];
  const std::size_t size = ends_[k] - begin;
  if (begin < window_begin_ || begin + size > window_begin_ + window_.size()) {
    window_begin_ = begin;
    if (!read(begin, std::max(size, std::min(kReadWindow, size_ - begin)), window_)) {
      window_.clear();
      return std::nullopt;
    }
  }
  return std::string_view(window_).substr(begin - window_begin_, size);
}

bool PackReader::read(std::size_t offset, std::size_t size, std::string& out) {
  out.resize(size);
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(offset));
  in_.read(out.data(), static_cast<std::streamsize>(size));
  return static_cast<bool>(in_);
}

/// Commits are the served key; restrict them to the hex ids the
/// pipeline emits.
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

fs::path pack_path(const fs::path& root, std::size_t component) {
  return root / kComponents[component] / "patches.pack";
}

std::vector<std::uint64_t> write_pack(
    const fs::path& path, std::size_t count,
    const std::function<std::string(std::size_t)>& body) {
  std::vector<std::uint64_t> checksums(count);
  atomic_write_file(path, [&](const ChunkSink& sink) {
    std::string table;
    table.reserve(count * kTableLine);
    std::string chunk(kPackVersionLine);
    std::size_t flushed = 0;  // bytes already handed to the sink
    std::vector<std::string> bodies;
    for (std::size_t first = 0; first < count; first += kPackBatch) {
      bodies.resize(std::min(kPackBatch, count - first));
      util::default_pool().parallel_for(
          bodies.size(), [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              bodies[i] = body(first + i);
              checksums[first + i] = util::fnv1a64(bodies[i]);
            }
          });
      for (const std::string& bytes : bodies) {
        chunk += bytes;
        table += util::to_hex(flushed + chunk.size());
        table += '\n';
      }
      sink(chunk);
      flushed += chunk.size();
      chunk.clear();
    }
    std::string footer(kFooterTag);
    footer += util::to_hex(count);
    footer += ' ';
    footer += util::to_hex(pack_checksum(kPackVersionLine, table, footer));
    footer += '\n';
    chunk += table;
    chunk += footer;
    sink(chunk);
  });
  return checksums;
}

ExportStats export_patchdb(const core::PatchDb& db, const fs::path& root) {
  PATCHDB_TRACE_SPAN("store.export");
  ExportStats stats;
  stats.root = root;

  // Each component's patches, and every natural one, in manifest order.
  std::array<std::vector<const diff::Patch*>, std::size(kComponents)> patches;
  std::vector<const diff::Patch*> natural_patches;
  const auto natural = natural_records(db);
  for (std::size_t c = 0; c < natural.size(); ++c) {
    for (const corpus::CommitRecord& record : *natural[c]) {
      patches[c].push_back(&record.patch);
      natural_patches.push_back(&record.patch);
    }
  }
  // Rows the build carries are formatted as they are, so they must be
  // one Table I row per natural patch.
  const bool carried = db.features.rows() != 0;
  if (carried && (db.features.rows() != natural_patches.size() ||
                  db.features.cols() != feature::kFeatureCount)) {
    throw std::invalid_argument(
        "store: the PatchDb carries " + std::to_string(db.features.rows()) +
        " feature rows of " + std::to_string(db.features.cols()) + " values for " +
        std::to_string(natural_patches.size()) + " natural patches");
  }
  for (const synth::SyntheticPatch& s : db.synthetic) {
    patches[kSynthetic].push_back(&s.patch);
  }

  // The packs land first, then features.csv, then the manifest: it is
  // the commit point, so an interrupted export never publishes a
  // manifest whose patches are absent.
  std::array<std::vector<std::uint64_t>, std::size(kComponents)> checksums;
  for (std::size_t c = 0; c < std::size(kComponents); ++c) {
    fs::create_directories(root / kComponents[c]);
    checksums[c] = write_pack(pack_path(root, c), patches[c].size(), [&](std::size_t k) {
      return diff::render_patch(*patches[c][k]);
    });
    stats.patches_written += patches[c].size();
  }

  // Every natural patch's row, in manifest order: the rows the build
  // carries, or one pool batch for a PatchDb that carries none.
  const feature::FeatureMatrix extracted =
      carried ? feature::FeatureMatrix() : feature::extract_all(natural_patches);
  const feature::FeatureMatrix& matrix = carried ? db.features : extracted;
  // Each row's line is formatted on the pool, then joined in order.
  std::vector<std::string> lines(matrix.rows());
  util::default_pool().parallel_for(
      lines.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          lines[i] = natural_patches[i]->commit;
          for (double value : matrix[i]) {
            lines[i] += ',';
            lines[i] += util::format_double(value, 6);
          }
          lines[i] += '\n';
        }
      });
  std::string features = "commit";
  for (std::string_view name : feature::feature_names()) {
    features += ',';
    features += name;
  }
  features += '\n';
  for (const std::string& line : lines) features += line;
  stats.feature_rows = matrix.rows();
  atomic_write_file(root / "features.csv", seal(kVersionLine, features));

  std::string manifest = manifest_header();
  for (std::size_t c = 0; c < natural.size(); ++c) {
    for (std::size_t k = 0; k < natural[c]->size(); ++k) {
      const corpus::CommitRecord& record = (*natural[c])[k];
      manifest += manifest_row(record.patch.commit, kComponents[c],
                               record.truth.is_security,
                               static_cast<int>(record.truth.type), record.repo, "", 0, 0,
                               checksums[c][k]);
    }
  }
  for (std::size_t k = 0; k < db.synthetic.size(); ++k) {
    const synth::SyntheticPatch& s = db.synthetic[k];
    manifest += manifest_row(s.patch.commit, kComponents[kSynthetic], s.truth.is_security,
                             static_cast<int>(s.truth.type), "", s.origin_commit,
                             static_cast<int>(s.variant), s.modified_after ? 1 : 0,
                             checksums[kSynthetic][k]);
  }
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

  // Each pack is opened at the first row that needs it, and read once,
  // in order; one that cannot be opened is reported once.
  constexpr std::size_t kCount = std::size(kComponents);
  std::array<std::optional<PackReader>, kCount> packs;
  std::array<bool, kCount> tried{};
  const auto pack_for = [&](std::size_t c) -> PackReader* {
    if (!std::exchange(tried[c], true)) {
      try {
        packs[c].emplace(pack_path(root, c));
        ++walk.files;
        walk.bytes += packs[c]->bytes();
      } catch (const std::runtime_error& e) {
        problem(e.what());
      }
    }
    return packs[c] ? &*packs[c] : nullptr;
  };
  // Rows listed per component: a row's position among its component's
  // rows is its entry in that component's pack.
  std::array<std::size_t, kCount> listed{};

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
    bool reads_patch = true;
    decoded.commit = fields[0];
    if (!is_lower_hex(fields[0])) {
      report("commit is not lowercase hex");
      reads_patch = false;
    } else if (const auto [first, fresh] = first_row.emplace(fields[0], row_no);
               !fresh) {
      report("duplicate commit " + fields[0] + " (first listed at row " +
             std::to_string(first->second) + ")");
      reads_patch = false;
    }
    const auto* component =
        std::find(std::begin(kComponents), std::end(kComponents), fields[1]);
    std::size_t position = 0;
    if (component == std::end(kComponents)) {
      report("unknown component '" + fields[1] + "'");
      reads_patch = false;
    } else {
      decoded.component = static_cast<std::size_t>(component - std::begin(kComponents));
      position = listed[decoded.component]++;
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
    if (!reads_patch) continue;

    if (PackReader* pack = pack_for(decoded.component)) {
      const auto where = [&] {
        return pack_path(root, decoded.component).string() + " entry " +
               std::to_string(position);
      };
      if (position >= pack->entries()) {
        report("no " + where() + " (the pack holds " + std::to_string(pack->entries()) +
               ")");
      } else if (const std::optional<std::string_view> content = pack->entry(position);
                 !content) {
        report("cannot read " + where());
      } else if (has_checksum && util::fnv1a64(*content) != checksum) {
        PATCHDB_COUNTER_ADD("store.checksum_failures", 1);
        report("checksum mismatch for " + where() + " (corrupted or truncated patch)");
      } else {
        bool parsed = true;
        try {
          decoded.patch = diff::parse_patch(*content);
        } catch (const std::exception& e) {
          parsed = false;
          report("cannot parse " + where() + ": " + e.what());
        }
        // The commit is the served key: a patch must carry its row's.
        if (parsed && decoded.patch.commit != decoded.commit) {
          report(where() + " carries commit '" + decoded.patch.commit +
                 "', not its row's");
        }
      }
    }
    entry(std::move(decoded));
  }

  // Every component has a pack, and no pack holds a patch the manifest
  // does not list.
  for (std::size_t c = 0; c < kCount; ++c) {
    const PackReader* pack = pack_for(c);
    if (pack && pack->entries() > listed[c]) {
      problem("store: " + pack_path(root, c).string() +
              ": orphaned entries (the pack holds " + std::to_string(pack->entries()) +
              ", manifest.csv lists " + std::to_string(listed[c]) + ")");
    }
  }
  return walk;
}

LoadedPatchDb load_patchdb(const fs::path& root) {
  PATCHDB_TRACE_SPAN("store.load");
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
