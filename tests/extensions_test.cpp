// Tests for the dataset-tooling extensions: one-vs-rest multi-class
// classification, near-duplicate detection, and fuzzy patch application.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dedupe.h"
#include "core/presence.h"
#include "corpus/gitlog.h"
#include "corpus/repo.h"
#include "diff/parse.h"
#include "diff/apply.h"
#include "diff/fuzz_apply.h"
#include "diff/myers.h"
#include "feature/features.h"
#include "ml/forest.h"
#include "ml/multiclass.h"
#include "util/rng.h"

namespace patchdb {
namespace {

// --------------------------------------------------------- multiclass --

ml::MultiDataset three_blobs(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  ml::MultiDataset data;
  data.classes = 3;
  const double centers[3][2] = {{-4, 0}, {4, 0}, {0, 5}};
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 3);
    data.rows.push_back({rng.normal(centers[label][0], 1.0),
                         rng.normal(centers[label][1], 1.0)});
    data.labels.push_back(label);
  }
  return data;
}

TEST(OneVsRest, SeparatesThreeBlobs) {
  const ml::MultiDataset train = three_blobs(300, 1);
  const ml::MultiDataset test = three_blobs(120, 2);
  ml::OneVsRest ovr([] { return std::make_unique<ml::RandomForest>(); });
  ovr.fit(train, 7);
  EXPECT_EQ(ovr.classes(), 3);

  std::vector<int> predicted;
  for (const auto& row : test.rows) predicted.push_back(ovr.predict(row));
  const ml::MultiMetrics m = ml::multi_metrics(test.labels, predicted, 3);
  EXPECT_GT(m.accuracy, 0.92);
  for (double recall : m.per_class_recall) EXPECT_GT(recall, 0.85);
}

TEST(OneVsRest, ScoresHaveOnePerClass) {
  const ml::MultiDataset train = three_blobs(90, 3);
  ml::OneVsRest ovr([] { return std::make_unique<ml::RandomForest>(); });
  ovr.fit(train, 1);
  const auto scores = ovr.predict_scores(train.rows[0]);
  EXPECT_EQ(scores.size(), 3u);
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(OneVsRest, RejectsBadLabels) {
  ml::MultiDataset bad;
  bad.classes = 2;
  bad.rows = {{1.0}};
  bad.labels = {5};
  ml::OneVsRest ovr([] { return std::make_unique<ml::RandomForest>(); });
  EXPECT_THROW(ovr.fit(bad, 1), std::invalid_argument);
  bad.classes = 0;
  bad.labels = {0};
  EXPECT_THROW(ovr.fit(bad, 1), std::invalid_argument);
}

TEST(MultiMetrics, HandComputedValues) {
  const std::vector<int> truth = {0, 0, 1, 1, 2, 2};
  const std::vector<int> predicted = {0, 1, 1, 1, 2, 0};
  const ml::MultiMetrics m = ml::multi_metrics(truth, predicted, 3);
  EXPECT_NEAR(m.accuracy, 4.0 / 6.0, 1e-12);
  EXPECT_NEAR(m.per_class_recall[0], 0.5, 1e-12);
  EXPECT_NEAR(m.per_class_recall[1], 1.0, 1e-12);
  EXPECT_NEAR(m.per_class_recall[2], 0.5, 1e-12);
  EXPECT_EQ(m.support[0], 2u);
}

// A realistic use: classify generated patches into their Table V types
// from Table I features. Types with distinct syntactic signatures must
// be recoverable well above the 1/12 chance level.
TEST(OneVsRest, PatchTypeClassificationBeatsChance) {
  util::Rng rng(11);
  ml::MultiDataset data;
  data.classes = static_cast<int>(corpus::kSecurityTypeCount);
  for (int rep = 0; rep < 40; ++rep) {
    for (std::size_t t = 0; t < corpus::kSecurityTypeCount; ++t) {
      const auto record =
          corpus::make_commit(rng, "r", corpus::security_types()[t]);
      const feature::FeatureVector v = feature::extract(record.patch);
      data.rows.emplace_back(v.begin(), v.end());
      data.labels.push_back(static_cast<int>(t));
    }
  }
  // 80/20 split by stride.
  ml::MultiDataset train;
  ml::MultiDataset test;
  train.classes = test.classes = data.classes;
  for (std::size_t i = 0; i < data.size(); ++i) {
    auto& dst = (i % 5 == 0) ? test : train;
    dst.rows.push_back(data.rows[i]);
    dst.labels.push_back(data.labels[i]);
  }
  ml::OneVsRest ovr([] { return std::make_unique<ml::RandomForest>(); });
  ovr.fit(train, 3);
  std::vector<int> predicted;
  for (const auto& row : test.rows) predicted.push_back(ovr.predict(row));
  const ml::MultiMetrics m =
      ml::multi_metrics(test.labels, predicted, data.classes);
  EXPECT_GT(m.accuracy, 0.4);  // chance = 1/12 ~ 0.083
}

// ------------------------------------------------------------- dedupe --

diff::Patch patch_from_lines(const std::vector<std::string>& before,
                             const std::vector<std::string>& after,
                             const std::string& path) {
  diff::Patch p;
  p.commit = std::string(40, 'e');
  p.files.push_back(
      diff::diff_file(path, diff::line_views(before), diff::line_views(after)));
  return p;
}

TEST(Dedupe, RenamedCloneHasSameFingerprint) {
  const diff::Patch original = patch_from_lines(
      {"int n = x;", "use(n);"}, {"int n = x;", "if (n > 0)", "    use(n);"},
      "a/first.c");
  const diff::Patch backport = patch_from_lines(
      {"int count = value;", "use(count);"},
      {"int count = value;", "if (count > 0)", "    use(count);"},
      "other/dir/second.c");
  EXPECT_EQ(core::change_fingerprint(original),
            core::change_fingerprint(backport));
}

TEST(Dedupe, StructuralChangeChangesFingerprint) {
  const diff::Patch a = patch_from_lines({"x = 1;"}, {"x = 2;"}, "f.c");
  const diff::Patch b = patch_from_lines({"x = 1;"}, {"x = 2;", "y = 3;"}, "f.c");
  EXPECT_NE(core::change_fingerprint(a), core::change_fingerprint(b));
}

TEST(Dedupe, KeepsFirstOccurrence) {
  std::vector<diff::Patch> patches;
  patches.push_back(patch_from_lines({"a;"}, {"b;"}, "1.c"));
  patches.push_back(patch_from_lines({"q;"}, {"r;", "s;"}, "2.c"));
  patches.push_back(patch_from_lines({"a;"}, {"b;"}, "3.c"));  // dup of [0]
  const core::DedupeResult result = core::dedupe(patches);
  EXPECT_EQ(result.kept, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(result.duplicate_of[2], 0u);
  EXPECT_EQ(result.duplicates(), 1u);
}

TEST(Dedupe, CollapsesTemplateClonesButNotAcrossTypes) {
  // Same-template commits differ only in identifier names — structurally
  // they ARE backport-style clones, and the fingerprint must group them
  // into few classes...
  util::Rng rng(21);
  std::vector<diff::Patch> redesigns;
  for (int i = 0; i < 60; ++i) {
    redesigns.push_back(
        corpus::make_commit(rng, "r", corpus::PatchType::kRedesign).patch);
  }
  const core::DedupeResult same_type = core::dedupe(redesigns);
  EXPECT_LT(same_type.kept.size(), 30u);
  EXPECT_GE(same_type.kept.size(), 2u);

  // ...while commits of different change shapes must not collapse
  // together: a mixed set keeps at least one representative per type.
  std::vector<diff::Patch> mixed;
  for (corpus::PatchType type : corpus::security_types()) {
    mixed.push_back(corpus::make_commit(rng, "r", type).patch);
  }
  const core::DedupeResult across = core::dedupe(mixed);
  EXPECT_GE(across.kept.size(), corpus::kSecurityTypeCount - 3);
}

TEST(Dedupe, AlphaRenamingDistinguishesIdentifierStructure) {
  // f(a, a) vs f(a, b): plain abstraction sees FUNC ( ID , ID ) for
  // both; the alpha fingerprint must keep them apart.
  const diff::Patch aa = patch_from_lines({"x;"}, {"f(a, a);"}, "1.c");
  const diff::Patch ab = patch_from_lines({"x;"}, {"f(a, b);"}, "2.c");
  EXPECT_NE(core::change_fingerprint(aa), core::change_fingerprint(ab));
}

// --------------------------------------------------------- fuzz apply --

std::vector<std::string> numbered(std::size_t n, const std::string& prefix) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(prefix + std::to_string(i));
  return out;
}

TEST(FuzzApply, CleanPatchAppliesCleanly) {
  const std::vector<std::string> before = numbered(20, "line");
  std::vector<std::string> after = before;
  after[10] = "edited";
  const diff::FileDiff fd =
      diff::diff_file("f.c", diff::line_views(before), diff::line_views(after));

  diff::FuzzReport report;
  const auto result = diff::apply_with_fuzz(before, fd, report);
  EXPECT_EQ(result, after);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.hunks_applied, fd.hunks.size());
}

TEST(FuzzApply, OffsetHunkIsRelocated) {
  const std::vector<std::string> before = numbered(30, "line");
  std::vector<std::string> after = before;
  after[20] = "edited";
  const diff::FileDiff fd =
      diff::diff_file("f.c", diff::line_views(before), diff::line_views(after));

  // Target file gained 5 lines at the top: stated positions are stale.
  std::vector<std::string> shifted = numbered(5, "new_top");
  shifted.insert(shifted.end(), before.begin(), before.end());

  diff::FuzzReport report;
  const auto result = diff::apply_with_fuzz(shifted, fd, report);
  EXPECT_EQ(report.hunks_failed, 0u);
  EXPECT_GT(report.hunks_offset, 0u);
  EXPECT_EQ(result[25], "edited");  // 20 + 5 shift
}

TEST(FuzzApply, ChangedEdgeContextNeedsFuzz) {
  const std::vector<std::string> before = numbered(20, "line");
  std::vector<std::string> after = before;
  after[10] = "edited";
  const diff::FileDiff fd =
      diff::diff_file("f.c", diff::line_views(before), diff::line_views(after));

  // The outermost context line of the hunk differs in the target.
  std::vector<std::string> target = before;
  target[7] = "locally modified";  // hunk context spans 7..13 (3 lines around 10)

  diff::FuzzReport report;
  const auto result = diff::apply_with_fuzz(target, fd, report);
  EXPECT_EQ(report.hunks_failed, 0u);
  EXPECT_GT(report.hunks_fuzzed, 0u);
  EXPECT_EQ(result[10], "edited");
  EXPECT_EQ(result[7], "locally modified");  // local change preserved
}

TEST(FuzzApply, HopelessHunkIsSkippedNotFatal) {
  const std::vector<std::string> before = numbered(10, "line");
  std::vector<std::string> after = before;
  after[5] = "edited";
  const diff::FileDiff fd =
      diff::diff_file("f.c", diff::line_views(before), diff::line_views(after));

  const std::vector<std::string> unrelated = numbered(10, "other");
  diff::FuzzReport report;
  const auto result = diff::apply_with_fuzz(unrelated, fd, report);
  EXPECT_EQ(report.hunks_failed, fd.hunks.size());
  EXPECT_EQ(result, unrelated);  // untouched
}

TEST(FuzzApply, MultiHunkDriftAccumulates) {
  const std::vector<std::string> before = numbered(60, "line");
  std::vector<std::string> after = before;
  after.insert(after.begin() + 10, {"added_a", "added_b", "added_c"});
  after[45] = "edited_tail";  // index in the grown file
  const diff::FileDiff fd =
      diff::diff_file("f.c", diff::line_views(before), diff::line_views(after));
  ASSERT_GE(fd.hunks.size(), 2u);

  diff::FuzzReport report;
  const auto result = diff::apply_with_fuzz(before, fd, report);
  EXPECT_EQ(result, after);
  EXPECT_TRUE(report.clean());
}

// ----------------------------------------------------------- presence --

corpus::CommitRecord security_record_with_snapshot(std::uint64_t seed) {
  util::Rng rng(seed);
  corpus::CommitOptions opt;
  opt.keep_snapshots = true;
  opt.noise_file_prob = 0.0;
  opt.multi_file_prob = 0.0;
  return corpus::make_commit(rng, "down", corpus::PatchType::kBoundCheck, opt);
}

TEST(Presence, DetectsPatchedAndVulnerable) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const corpus::CommitRecord record = security_record_with_snapshot(seed);
    const diff::FileDiff& fd = record.patch.files.front();
    const corpus::FileSnapshot& snap = record.snapshots.front();

    const core::PresenceReport on_before = core::test_presence(snap.before, fd);
    EXPECT_EQ(on_before.verdict, core::Presence::kVulnerable) << "seed " << seed;

    const core::PresenceReport on_after = core::test_presence(snap.after, fd);
    EXPECT_EQ(on_after.verdict, core::Presence::kPatched) << "seed " << seed;
  }
}

TEST(Presence, SurvivesDownstreamDrift) {
  const corpus::CommitRecord record = security_record_with_snapshot(3);
  const diff::FileDiff& fd = record.patch.files.front();
  // Downstream added 6 unrelated lines at the top of the file.
  std::vector<std::string> drifted = {"// vendor header", "// v", "// v",
                                      "// v", "// v", "// v"};
  drifted.insert(drifted.end(), record.snapshots.front().after.begin(),
                 record.snapshots.front().after.end());
  const core::PresenceReport report = core::test_presence(drifted, fd);
  EXPECT_EQ(report.verdict, core::Presence::kPatched);
}

TEST(Presence, UnrelatedFileIsUnknown) {
  const corpus::CommitRecord record = security_record_with_snapshot(5);
  const std::vector<std::string> unrelated = {"completely", "different", "file"};
  const core::PresenceReport report =
      core::test_presence(unrelated, record.patch.files.front());
  EXPECT_EQ(report.verdict, core::Presence::kUnknown);
}

TEST(Presence, NamesAreStable) {
  EXPECT_STREQ(core::presence_name(core::Presence::kPatched), "patched");
  EXPECT_STREQ(core::presence_name(core::Presence::kVulnerable), "vulnerable");
}

// -------------------------------------------------------------- gitlog --

TEST(GitLog, RoundTripsThroughStreamParser) {
  util::Rng rng(31);
  std::vector<corpus::CommitRecord> records;
  for (int i = 0; i < 12; ++i) {
    records.push_back(corpus::make_commit(
        rng, "histrepo",
        i % 3 == 0 ? corpus::PatchType::kNullCheck : corpus::PatchType::kRefactor));
  }
  const std::string log = corpus::render_git_log(records);
  const std::vector<diff::Patch> parsed = diff::parse_patch_stream(log);
  ASSERT_EQ(parsed.size(), records.size());
  // Newest first: parsed[0] is the last record.
  EXPECT_EQ(parsed.front().commit, records.back().patch.commit);
  EXPECT_EQ(parsed.back().commit, records.front().patch.commit);
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i], records[records.size() - 1 - i].patch);
  }
}

}  // namespace
}  // namespace patchdb
