// Tests for the on-disk dataset layout: export/load round trips, layout
// contents, strict manifest parsing, and failure handling for corrupted
// exports (flipped bytes, truncated packs, tampered manifests).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/patchdb.h"
#include "diff/render.h"
#include "feature/features.h"
#include "store/csv.h"
#include "store/export.h"
#include "store/fsck.h"
#include "store/io.h"
#include "util/hash.h"
#include "util/strings.h"
#include "util/table.h"

namespace patchdb {
namespace {

namespace fs = std::filesystem;

// Manifest rows neither reader may accept. Each is written as the only
// data row, so both readers must name row 3.
constexpr struct {
  const char* name;
  const char* row;
} kGarbageRows[] = {
    // std::atoi would have read "7x" as 7 and loaded the row.
    {"trailing garbage in type",
     "deadbeef,nvd,security,7x,repo,,0,0,0123456789abcdef\n"},
    {"case-sensitive label",
     "deadbeef,nvd,Security,1,repo,,0,0,0123456789abcdef\n"},
    {"non-numeric variant",
     "deadbeef,synthetic,security,1,,beef,x,0,0123456789abcdef\n"},
    {"out-of-range synthesis variant",
     "deadbeef,synthetic,security,1,,beef,99,0,0123456789abcdef\n"},
    {"natural patch with nonzero variant",
     "deadbeef,nvd,security,1,repo,,3,0,0123456789abcdef\n"},
    {"modified_after out of range",
     "deadbeef,nvd,security,1,repo,,0,2,0123456789abcdef\n"},
    {"unknown patch type",
     "deadbeef,nvd,security,55,repo,,0,0,0123456789abcdef\n"},
    // Commits double as file names; a traversal must not leave root.
    {"commit with path traversal",
     "../../etc/passwd,nvd,security,1,repo,,0,0,0123456789abcdef\n"},
    {"uppercase commit",
     "DEADBEEF,nvd,security,1,repo,,0,0,0123456789abcdef\n"},
    {"short checksum", "deadbeef,nvd,security,1,repo,,0,0,0123\n"},
};

/// The error a reader gives, or "" when load_patchdb accepts the dataset.
std::string load_error(const fs::path& root) {
  try {
    store::load_patchdb(root);
    return {};
  } catch (const std::runtime_error& e) {
    return e.what();
  }
}

/// Each record's patch as a pack holds it.
std::vector<std::string> rendered(const std::vector<corpus::CommitRecord>& records) {
  std::vector<std::string> bodies;
  for (const corpus::CommitRecord& record : records) {
    bodies.push_back(diff::render_patch(record.patch));
  }
  return bodies;
}

/// Write `bodies` as the pack at `path`, through the exporter's writer.
void forge_pack(const fs::path& path, const std::vector<std::string>& bodies) {
  store::write_pack(path, bodies.size(), [&bodies](std::size_t k) { return bodies[k]; });
}

/// Overwrite `path` with `bytes`, in place.
void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Where a pack's first body starts: just past its version line.
std::size_t first_body(const std::string& pack) { return pack.find('\n') + 1; }

/// Where a pack's footer line starts; its offset table ends there.
std::size_t footer_start(const std::string& pack) {
  return pack.rfind('\n', pack.size() - 2) + 1;
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("patchdb_store_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  static core::PatchDb small_db() {
    core::BuildOptions options;
    options.world.repos = 4;
    options.world.nvd_security = 25;
    options.world.wild_pool = 400;
    options.world.seed = 404;
    options.augment.max_rounds = 1;
    options.synthesis.max_per_patch = 2;
    return core::build_patchdb(options);
  }

  /// A properly sealed v2 manifest holding `rows` (so tests exercise row
  /// validation, not just the checksum trailer).
  void write_sealed_manifest(const std::string& rows) {
    fs::create_directories(root_);
    std::string body(store::store_version_line());
    body += '\n';
    body += store::manifest_header();
    body += rows;
    std::ofstream out(root_ / "manifest.csv", std::ios::binary);
    out << store::with_checksum_trailer(std::move(body));
  }

  /// The exported manifest's lines, version line and header included,
  /// so line i is row i + 1 in the readers' messages.
  std::vector<std::string> manifest_lines() const {
    const std::string sealed = store::read_file(root_ / "manifest.csv");
    std::istringstream body{
        std::string(store::strip_checksum_trailer(sealed, "manifest.csv"))};
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(body, line)) lines.push_back(line);
    return lines;
  }

  /// Write `lines` back as the manifest under a fresh trailer, so the row
  /// checks decide and not the trailer.
  void reseal_manifest(const std::vector<std::string>& lines) {
    std::string body;
    for (const std::string& line : lines) body += line + '\n';
    std::ofstream out(root_ / "manifest.csv", std::ios::binary | std::ios::trunc);
    out << store::with_checksum_trailer(std::move(body));
  }

  /// Append a copy of the first patch row to the exported manifest and
  /// re-seal it. Returns the copy's row number (rows count the version
  /// line and the header, as the loaders' messages do).
  std::size_t repeat_first_manifest_row() {
    std::vector<std::string> lines = manifest_lines();
    lines.push_back(lines[2]);
    reseal_manifest(lines);
    return lines.size();
  }

  fs::path root_;
};

TEST_F(StoreTest, ExportWritesLayout) {
  const core::PatchDb db = small_db();
  const store::ExportStats stats = store::export_patchdb(db, root_);

  EXPECT_TRUE(fs::exists(root_ / "manifest.csv"));
  EXPECT_TRUE(fs::exists(root_ / "features.csv"));
  EXPECT_TRUE(fs::exists(root_ / "nvd"));
  EXPECT_TRUE(fs::exists(root_ / "wild"));
  EXPECT_TRUE(fs::exists(root_ / "nonsecurity"));
  EXPECT_TRUE(fs::exists(root_ / "synthetic"));

  const std::size_t expected = db.nvd_security.size() + db.wild_security.size() +
                               db.nonsecurity.size() + db.synthetic.size();
  EXPECT_EQ(stats.patches_written, expected);
  EXPECT_EQ(stats.feature_rows,
            expected - db.synthetic.size());  // features for natural only

  // Each component directory holds its pack and nothing else.
  for (std::size_t c = 0; c < std::size(store::kComponents); ++c) {
    std::vector<fs::path> files;
    for (const fs::directory_entry& e :
         fs::directory_iterator(root_ / store::kComponents[c])) {
      files.push_back(e.path());
    }
    ASSERT_EQ(files.size(), 1u) << store::kComponents[c];
    EXPECT_EQ(files[0], store::pack_path(root_, c));
  }

  // The nvd pack: its version line, every NVD patch (each non-empty)
  // back to back in manifest order, one 17-byte table line per patch,
  // and the 40-byte footer.
  const std::string pack = store::read_file(store::pack_path(root_, 0));
  std::string bodies;
  for (const std::string& body : rendered(db.nvd_security)) {
    EXPECT_FALSE(body.empty());
    bodies += body;
  }
  EXPECT_EQ(pack.substr(0, first_body(pack)), "#patchdb.pack.v1\n");
  EXPECT_EQ(pack.substr(first_body(pack), bodies.size()), bodies);
  EXPECT_EQ(pack.size(),
            first_body(pack) + bodies.size() + 17 * db.nvd_security.size() + 40);
  EXPECT_EQ(pack.substr(footer_start(pack), 6), "#pack ");
}

TEST_F(StoreTest, RoundTripPreservesEverything) {
  const core::PatchDb db = small_db();
  store::export_patchdb(db, root_);
  const store::LoadedPatchDb loaded = store::load_patchdb(root_);

  ASSERT_EQ(loaded.nvd_security.size(), db.nvd_security.size());
  ASSERT_EQ(loaded.wild_security.size(), db.wild_security.size());
  ASSERT_EQ(loaded.nonsecurity.size(), db.nonsecurity.size());
  ASSERT_EQ(loaded.synthetic.size(), db.synthetic.size());

  // Patches round-trip byte-for-byte through render/parse/render; the
  // manifest restores labels, types, repos.
  for (std::size_t i = 0; i < db.nvd_security.size(); ++i) {
    // Order within a component is preserved by the manifest.
    EXPECT_EQ(diff::render_patch(loaded.nvd_security[i].patch),
              diff::render_patch(db.nvd_security[i].patch));
    EXPECT_EQ(loaded.nvd_security[i].truth.type, db.nvd_security[i].truth.type);
    EXPECT_EQ(loaded.nvd_security[i].repo, db.nvd_security[i].repo);
    EXPECT_TRUE(loaded.nvd_security[i].truth.is_security);
  }
  for (std::size_t i = 0; i < db.synthetic.size(); ++i) {
    EXPECT_EQ(loaded.synthetic[i].origin_commit, db.synthetic[i].origin_commit);
    EXPECT_EQ(loaded.synthetic[i].variant, db.synthetic[i].variant);
    EXPECT_EQ(loaded.synthetic[i].modified_after, db.synthetic[i].modified_after);
    EXPECT_EQ(loaded.synthetic[i].truth.is_security,
              db.synthetic[i].truth.is_security);
  }
}

// The reader holds a window of a pack, not the pack: patches larger
// than that window, and the ones after them, must still round-trip.
TEST_F(StoreTest, PatchesLargerThanTheReadWindowRoundTrip) {
  core::PatchDb db = small_db();
  ASSERT_GE(db.nvd_security.size(), 3u);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    std::string message;
    for (int line = 0; line < 12000; ++line) {
      message += "line " + std::to_string(line) + " of a long commit message\n";
    }
    db.nvd_security[i].patch.message = message;
  }
  // Each message alone is over 400 KiB, past the reader's 256 KiB window.
  ASSERT_GT(db.nvd_security[0].patch.message.size(), 400u << 10);
  store::export_patchdb(db, root_);
  EXPECT_TRUE(store::fsck_dataset(root_).ok());
  const store::LoadedPatchDb loaded = store::load_patchdb(root_);
  ASSERT_EQ(loaded.nvd_security.size(), db.nvd_security.size());
  for (std::size_t i = 0; i < db.nvd_security.size(); ++i) {
    EXPECT_EQ(diff::render_patch(loaded.nvd_security[i].patch),
              diff::render_patch(db.nvd_security[i].patch))
        << i;
  }
}

// The seed exporter wrote manifest fields verbatim, so a repo named
// "lib,foo" produced an extra column and the row loaded as garbage.
// Fields holding separators, quotes, and CRLF must now round-trip.
TEST_F(StoreTest, NastyManifestFieldsRoundTrip) {
  core::PatchDb db = small_db();
  ASSERT_FALSE(db.nvd_security.empty());
  ASSERT_FALSE(db.synthetic.empty());
  db.nvd_security[0].repo = "evil,\"repo\"\r\nwith everything,";
  db.nvd_security[1].repo = "trailing-newline\n";
  db.synthetic[0].origin_commit = "comma,quote\"crlf\r\n";

  store::export_patchdb(db, root_);
  const store::LoadedPatchDb loaded = store::load_patchdb(root_);
  ASSERT_EQ(loaded.nvd_security.size(), db.nvd_security.size());
  EXPECT_EQ(loaded.nvd_security[0].repo, db.nvd_security[0].repo);
  EXPECT_EQ(loaded.nvd_security[1].repo, db.nvd_security[1].repo);
  EXPECT_EQ(loaded.synthetic[0].origin_commit, db.synthetic[0].origin_commit);
}

TEST_F(StoreTest, CsvEscapeAndParseRoundTrip) {
  const std::string fields[] = {"plain", "with,comma", "with\"quote",
                                "multi\r\nline", "", "  spaced  "};
  std::string doc;
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    if (i != 0) doc += ',';
    doc += store::csv_escape(fields[i]);
  }
  doc += '\n';
  const auto rows = store::csv_parse(doc);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), std::size(fields));
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    EXPECT_EQ(rows[0][i], fields[i]) << i;
  }

  EXPECT_THROW(store::csv_parse("\"unterminated\n"), std::runtime_error);
  EXPECT_THROW(store::csv_parse("a,\"b\"junk\n"), std::runtime_error);
  EXPECT_THROW(store::csv_parse("stray\"quote\n"), std::runtime_error);
}

// Satellite: the loader used std::atoi, which silently parsed "7x" as 7
// and "junk" as 0. parse_int_field must reject anything non-numeric.
TEST_F(StoreTest, ParseIntFieldIsStrict) {
  EXPECT_EQ(store::parse_int_field("0", 100, "t"), 0);
  EXPECT_EQ(store::parse_int_field("42", 100, "t"), 42);
  EXPECT_THROW(store::parse_int_field("", 100, "t"), std::runtime_error);
  EXPECT_THROW(store::parse_int_field("7x", 100, "t"), std::runtime_error);
  EXPECT_THROW(store::parse_int_field("-1", 100, "t"), std::runtime_error);
  EXPECT_THROW(store::parse_int_field(" 7", 100, "t"), std::runtime_error);
  EXPECT_THROW(store::parse_int_field("101", 100, "t"), std::runtime_error);
}

TEST_F(StoreTest, FeaturesCsvHasHeaderAndRows) {
  const core::PatchDb db = small_db();
  store::export_patchdb(db, root_);
  std::ifstream in(root_ / "features.csv");
  std::string version;
  std::getline(in, version);
  EXPECT_EQ(version, store::store_version_line());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.rfind("commit,changed_lines,", 0), 0u);

  // Row i is record i of the manifest order (nvd, wild, nonsecurity):
  // its commit, then its 60 Table I values at six decimals.
  std::vector<std::string> expected;
  for (const auto* records : {&db.nvd_security, &db.wild_security, &db.nonsecurity}) {
    for (const corpus::CommitRecord& record : *records) {
      std::string row = record.patch.commit;
      for (double value : feature::extract(record.patch)) {
        row += ',';
        row += util::format_double(value, 6);
      }
      expected.push_back(std::move(row));
    }
  }
  ASSERT_FALSE(db.wild_security.empty());
  ASSERT_FALSE(db.nonsecurity.empty());
  std::vector<std::string> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;  // checksum trailer
    rows.push_back(line);
  }
  ASSERT_EQ(rows.size(), expected.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], expected[i]) << "features.csv data row " << i;
  }

  // The build carries the loop's rows, and export formats them. A copy
  // without rows (perfbench's traced replay assembles one) is featurized
  // by the export itself, to the same bytes.
  ASSERT_EQ(db.features.rows(), expected.size());
  core::PatchDb rowless = db;
  rowless.features = {};
  store::export_patchdb(rowless, root_ / "rowless");
  EXPECT_EQ(store::read_file(root_ / "rowless" / "features.csv"),
            store::read_file(root_ / "features.csv"));
}

// Rows that are not one per natural patch cannot be formatted against
// the manifest: the export refuses them before it writes a file.
TEST_F(StoreTest, ExportRefusesRowsThatDoNotMatchThePatches) {
  core::PatchDb db = small_db();
  ASSERT_FALSE(db.nonsecurity.empty());
  db.nonsecurity.pop_back();
  EXPECT_THROW(store::export_patchdb(db, root_), std::invalid_argument);
  EXPECT_FALSE(fs::exists(root_));
}

TEST_F(StoreTest, LoadMissingManifestThrows) {
  fs::create_directories(root_);
  EXPECT_THROW(store::load_patchdb(root_), std::runtime_error);
}

TEST_F(StoreTest, LoadUnsealedManifestThrows) {
  // A v1-style manifest without the checksum trailer must be rejected.
  fs::create_directories(root_);
  std::ofstream out(root_ / "manifest.csv", std::ios::binary);
  out << store::store_version_line() << "\n" << store::manifest_header();
  out.close();
  EXPECT_THROW(store::load_patchdb(root_), std::runtime_error);
}

TEST_F(StoreTest, LoadMalformedManifestRowThrows) {
  write_sealed_manifest("too,few,fields\n");
  EXPECT_THROW(store::load_patchdb(root_), std::runtime_error);
}

TEST_F(StoreTest, LoadRejectsGarbageFields) {
  for (const auto& c : kGarbageRows) {
    fs::remove_all(root_);
    write_sealed_manifest(c.row);
    EXPECT_THROW(store::load_patchdb(root_), std::runtime_error) << c.name;
  }
}

TEST_F(StoreTest, LoadMissingPatchFileThrows) {
  // Four empty packs: the row's entry is not there.
  store::export_patchdb(core::PatchDb{}, root_);
  write_sealed_manifest("deadbeef,nvd,security,1,repo,,0,0,0123456789abcdef\n");
  const std::string error = load_error(root_);
  EXPECT_NE(error.find("row 3: no " + store::pack_path(root_, 0).string() + " entry 0"),
            std::string::npos)
      << error;
}

TEST_F(StoreTest, LoadDetectsFlippedByteInManifest) {
  store::export_patchdb(small_db(), root_);
  const fs::path manifest = root_ / "manifest.csv";
  std::string content = store::read_file(manifest);
  content[content.size() / 2] ^= 0x01;
  std::ofstream(manifest, std::ios::binary) << content;
  EXPECT_THROW(store::load_patchdb(root_), std::runtime_error);
}

TEST_F(StoreTest, LoadDetectsCorruptedPatchFile) {
  const core::PatchDb db = small_db();
  store::export_patchdb(db, root_);
  const fs::path victim = store::pack_path(root_, 0);
  std::string content = store::read_file(victim);
  // The middle of the first body: same length, one flipped bit.
  const std::size_t body_size = diff::render_patch(db.nvd_security[0].patch).size();
  content[first_body(content) + body_size / 2] ^= 0x01;
  write_bytes(victim, content);
  try {
    store::load_patchdb(root_);
    FAIL() << "corrupted patch loaded without error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos);
  }
}

TEST_F(StoreTest, LoadDetectsTruncatedPatchFile) {
  const core::PatchDb db = small_db();
  store::export_patchdb(db, root_);
  const fs::path victim = store::pack_path(root_, 1);
  const std::string content = store::read_file(victim);
  write_bytes(victim, content.substr(0, content.size() / 2));
  EXPECT_THROW(store::load_patchdb(root_), std::runtime_error);
}

TEST_F(StoreTest, ChecksumTrailerRejectsAnyTampering) {
  const std::string sealed = store::with_checksum_trailer("line one\nline two\n");
  EXPECT_EQ(store::strip_checksum_trailer(sealed, "doc"),
            "line one\nline two\n");
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    std::string bad = sealed;
    bad[i] ^= 0x02;
    EXPECT_THROW(store::strip_checksum_trailer(bad, "doc"), std::runtime_error)
        << "flipped byte " << i << " went undetected";
  }
  EXPECT_THROW(store::strip_checksum_trailer("no trailer at all\n", "doc"),
               std::runtime_error);
  EXPECT_THROW(
      store::strip_checksum_trailer(sealed.substr(0, sealed.size() - 3), "doc"),
      std::runtime_error);
}

TEST_F(StoreTest, ExportIsIdempotent) {
  const core::PatchDb db = small_db();
  store::export_patchdb(db, root_);
  const store::ExportStats again = store::export_patchdb(db, root_);
  EXPECT_GT(again.patches_written, 0u);
  const store::LoadedPatchDb loaded = store::load_patchdb(root_);
  EXPECT_EQ(loaded.nvd_security.size(), db.nvd_security.size());
}

TEST_F(StoreTest, LoadRejectsRepeatedCommit) {
  store::export_patchdb(small_db(), root_);
  const std::size_t row = repeat_first_manifest_row();
  try {
    store::load_patchdb(root_);
    FAIL() << "a manifest listing one commit twice loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row " + std::to_string(row) + ": duplicate commit"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("first listed at row 3"), std::string::npos) << what;
  }
}

TEST_F(StoreTest, FsckRejectsRepeatedCommit) {
  store::export_patchdb(small_db(), root_);
  ASSERT_TRUE(store::fsck_dataset(root_).ok());
  const std::size_t row = repeat_first_manifest_row();
  const store::FsckReport report = store::fsck_dataset(root_);
  const std::string expected = "manifest.csv row " + std::to_string(row) +
                               ": duplicate commit";
  EXPECT_TRUE(std::any_of(report.errors.begin(), report.errors.end(),
                          [&](const std::string& error) {
                            return error.find(expected) != std::string::npos;
                          }))
      << "no error names row " << row;
}

// A pack entry that is not a diff, with the pack and the manifest
// re-sealed around it and its checksum written into its row: every
// checksum holds, so only a parse finds it. fsck used to pass such a
// dataset that load_patchdb refused.
TEST_F(StoreTest, FsckRejectsResealedNonDiffPatch) {
  const core::PatchDb db = small_db();
  store::export_patchdb(db, root_);
  const std::string commit = db.nvd_security[0].patch.commit;
  const fs::path victim = store::pack_path(root_, 0);
  std::vector<std::string> bodies = rendered(db.nvd_security);
  bodies[0] = "stray\n";
  forge_pack(victim, bodies);
  std::vector<std::string> lines = manifest_lines();
  std::size_t row = 0;
  for (std::size_t i = 2; i < lines.size(); ++i) {
    if (lines[i].rfind(commit + ",", 0) != 0) continue;
    lines[i].replace(lines[i].rfind(',') + 1, std::string::npos,
                     util::to_hex(util::fnv1a64("stray\n")));
    row = i + 1;
  }
  ASSERT_NE(row, 0u);
  reseal_manifest(lines);

  const store::FsckReport report = store::fsck_dataset(root_);
  ASSERT_FALSE(report.ok()) << "fsck passed a patch file that is not a diff";
  const std::string& error = report.errors.front();
  EXPECT_NE(error.find("manifest.csv row " + std::to_string(row) + ": "),
            std::string::npos)
      << error;
  EXPECT_NE(error.find(victim.string()), std::string::npos) << error;
  EXPECT_EQ(error, load_error(root_));
}

// Both readers get each hostile row alone in a sealed manifest: load
// refuses it, and fsck reports the very message load throws.
TEST_F(StoreTest, BothReadersRejectGarbageRowsAlike) {
  std::vector<std::pair<std::string, std::string>> cases;
  for (const auto& c : kGarbageRows) cases.emplace_back(c.name, c.row);
  cases.emplace_back("unknown component",
                     "deadbeef,bogus,security,1,repo,,0,0,0123456789abcdef\n");
  cases.emplace_back("eight fields", "deadbeef,nvd,security,1,repo,,0,0\n");
  for (const auto& [name, row] : cases) {
    fs::remove_all(root_);
    write_sealed_manifest(row);
    const std::string thrown = load_error(root_);
    ASSERT_FALSE(thrown.empty()) << name << ": load accepted the row";
    const store::FsckReport report = store::fsck_dataset(root_);
    ASSERT_FALSE(report.ok()) << name << ": fsck passed the row";
    EXPECT_NE(report.errors.front().find("manifest.csv row 3"), std::string::npos)
        << name << ": " << report.errors.front();
    EXPECT_EQ(report.errors.front(), thrown) << name;
  }
}

// One corruption at a time to the manifest rows and the packs of a
// small export, with the manifest re-sealed after each row edit so that
// the row checks decide: fsck passes exactly the datasets load_patchdb
// accepts, never throws, and reports load's message first.
TEST_F(StoreTest, FsckAgreesWithLoadOnEveryCorruption) {
  const core::PatchDb db = small_db();
  ASSERT_FALSE(db.synthetic.empty());
  store::export_patchdb(db, root_);
  const std::vector<std::string> pristine = manifest_lines();
  std::vector<std::string> packs;
  for (std::size_t c = 0; c < std::size(store::kComponents); ++c) {
    packs.push_back(store::read_file(store::pack_path(root_, c)));
  }
  const fs::path nvd_pack = store::pack_path(root_, 0);
  const fs::path wild_pack = store::pack_path(root_, 1);
  const std::vector<std::string> nvd_bodies = rendered(db.nvd_security);
  const std::string wild_content = diff::render_patch(db.wild_security[0].patch);
  const auto restore = [&] {
    reseal_manifest(pristine);
    for (std::size_t c = 0; c < packs.size(); ++c) {
      fs::remove_all(root_ / store::kComponents[c]);
      fs::create_directories(root_ / store::kComponents[c]);
      write_bytes(store::pack_path(root_, c), packs[c]);
    }
  };
  // Load and fsck must agree; the damaged packs must be refused.
  std::size_t refused = 0;
  const auto check = [&](const std::string& name, bool damaged = false) {
    const std::string thrown = load_error(root_);
    store::FsckReport report;
    ASSERT_NO_THROW(report = store::fsck_dataset(root_)) << name;
    EXPECT_EQ(report.ok(), thrown.empty())
        << name << ": load says \"" << thrown << "\", fsck says \""
        << (report.ok() ? std::string("ok") : report.errors.front()) << "\"";
    if (damaged) {
      EXPECT_FALSE(thrown.empty()) << name << " was accepted";
    }
    if (!thrown.empty() && !report.ok()) {
      EXPECT_EQ(report.errors.front(), thrown) << name;
      ++refused;
    }
    restore();
  };
  check("pristine export");

  // Each field of a natural row (row 3, the first nvd patch) and of the
  // first synthetic row in turn, set to values the format rejects. repo
  // and origin are free text and have none.
  const std::vector<std::vector<std::string>> bad_values = {
      {"", "DEADBEEF", "../x", "0123456789abcdef"},  // commit
      {"", "NVD", "bogus", "wild", "synthetic"},      // component
      {"", "Security", "1"},                          // label
      {"", "0", "13", "7x", "-1", "1001"},            // type
      {},                                             // repo
      {},                                             // origin
      {"", "x", "3", "99"},                           // variant
      {"", "2", "yes"},                               // modified_after
      {"", "0123", "0000000000000000", "0123456789ABCDEF"},  // checksum
  };
  std::size_t synthetic_line = 0;
  for (std::size_t i = 2; i < pristine.size(); ++i) {
    if (store::csv_parse(pristine[i] + "\n")[0][1] == "synthetic") {
      synthetic_line = i;
      break;
    }
  }
  ASSERT_NE(synthetic_line, 0u);
  for (const std::size_t line : {std::size_t{2}, synthetic_line}) {
    const std::vector<std::string> fields = store::csv_parse(pristine[line] + "\n")[0];
    ASSERT_EQ(fields.size(), bad_values.size());
    for (std::size_t f = 0; f < fields.size(); ++f) {
      for (const std::string& value : bad_values[f]) {
        std::vector<std::string> edited = fields;
        edited[f] = value;
        std::vector<std::string> escaped;
        for (const std::string& field : edited) {
          escaped.push_back(store::csv_escape(field));
        }
        std::vector<std::string> lines = pristine;
        lines[line] = util::join(escaped, ",");
        reseal_manifest(lines);
        check("row " + std::to_string(line + 1) + " field " + std::to_string(f) +
              " = \"" + value + "\"");
      }
    }
    std::vector<std::string> lines = pristine;
    lines[line] += ",extra";
    reseal_manifest(lines);
    check("row " + std::to_string(line + 1) + " with ten fields");
    lines[line] = pristine[line].substr(0, pristine[line].rfind(','));
    reseal_manifest(lines);
    check("row " + std::to_string(line + 1) + " with eight fields");
  }

  std::vector<std::string> lines = pristine;
  lines.push_back(pristine[2]);
  reseal_manifest(lines);
  check("duplicated row");

  // One flipped byte in each part of the nvd pack: its version line, its
  // first body, its offset table and its footer.
  const std::string& pack = packs[0];
  const std::pair<const char*, std::size_t> flips[] = {
      {"version line", 1},
      {"first body", first_body(pack) + nvd_bodies[0].size() / 2},
      {"offset table", footer_start(pack) - 5},
      {"footer", pack.size() - 3}};
  for (const auto& [part, offset] : flips) {
    std::string flipped = pack;
    flipped[offset] ^= 0x01;
    write_bytes(nvd_pack, flipped);
    check(std::string("flipped byte in the nvd pack's ") + part, true);
  }
  write_bytes(nvd_pack, pack.substr(0, pack.size() - 1));
  check("nvd pack one byte short", true);
  write_bytes(nvd_pack, pack + "\n");
  check("nvd pack one byte long", true);
  write_bytes(wild_pack, packs[1].substr(0, packs[1].size() / 2));
  check("wild pack cut in half", true);
  std::vector<std::string> extra = nvd_bodies;
  extra.push_back(wild_content);
  forge_pack(nvd_pack, extra);
  check("nvd pack with an entry the manifest does not list", true);
  fs::remove(nvd_pack);
  check("missing nvd pack", true);

  // An export from before packs: one .patch file per commit, no pack.
  // The refusal names the missing pack and asks for a re-export.
  for (std::size_t c = 0; c < packs.size(); ++c) fs::remove(store::pack_path(root_, c));
  const std::vector<corpus::CommitRecord>* natural[] = {
      &db.nvd_security, &db.wild_security, &db.nonsecurity};
  for (std::size_t c = 0; c < std::size(natural); ++c) {
    for (const corpus::CommitRecord& record : *natural[c]) {
      write_bytes(root_ / store::kComponents[c] / (record.patch.commit + ".patch"),
                  diff::render_patch(record.patch));
    }
  }
  for (const synth::SyntheticPatch& patch : db.synthetic) {
    write_bytes(root_ / store::kComponents[store::kSynthetic] /
                    (patch.patch.commit + ".patch"),
                diff::render_patch(patch.patch));
  }
  const std::string per_file = load_error(root_);
  EXPECT_NE(per_file.find(nvd_pack.string()), std::string::npos) << per_file;
  EXPECT_NE(per_file.find("re-export"), std::string::npos) << per_file;
  check("per-file export", true);

  // What perfbench's corrupt-export hook does: flip bit 5 of byte 0 of
  // the first file under nvd/.
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(root_ / "nvd")) {
    if (!entry.is_regular_file()) continue;
    std::string bytes = store::read_file(entry.path());
    bytes[0] ^= 0x20;
    write_bytes(entry.path(), bytes);
    break;
  }
  check("perfbench's corrupt-export hook", true);

  // Replaced and re-sealed: the pack is rewritten around the new entry
  // and the row carries its checksum. A whole wild patch swapped in
  // parses, but carries another commit, so the dataset would serve two
  // records under that key.
  for (const std::string& replacement : {std::string("stray\n"), std::string(),
                                         wild_content.substr(0, wild_content.size() / 2),
                                         wild_content}) {
    std::vector<std::string> bodies = nvd_bodies;
    bodies[0] = replacement;
    forge_pack(nvd_pack, bodies);
    lines = pristine;
    lines[2].replace(lines[2].rfind(',') + 1, std::string::npos,
                     util::to_hex(util::fnv1a64(replacement)));
    reseal_manifest(lines);
    check("nvd entry 0 replaced by " + std::to_string(replacement.size()) +
              " bytes and re-sealed",
          true);
  }
  EXPECT_GT(refused, 50u);
}

}  // namespace
}  // namespace patchdb
