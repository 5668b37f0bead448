// Tests for the core module: weighted distances, nearest link search
// (Algorithm 1) and its invariants against the exact assignment, the
// augmentation loop, the Table III baselines, and the categorizer.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "core/augment.h"
#include "core/baselines.h"
#include "core/categorize.h"
#include "core/distance.h"
#include "core/nearest_link.h"
#include "core/patchdb.h"
#include "corpus/world.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace patchdb {
namespace {

feature::FeatureMatrix random_features(std::size_t rows, std::uint64_t seed,
                                       double scale = 10.0) {
  util::Rng rng(seed);
  feature::FeatureMatrix m(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < feature::kFeatureCount; ++j) {
      m[i][j] = rng.uniform(-scale, scale);
    }
  }
  return m;
}

// ----------------------------------------------------------- distance --

TEST(Distance, WeightsNormalizeToUnitMaxAbs) {
  const feature::FeatureMatrix a = random_features(20, 1);
  const feature::FeatureMatrix b = random_features(30, 2);
  const std::vector<double> w = core::maxabs_weights(a, b);
  ASSERT_EQ(w.size(), feature::kFeatureCount);
  // After weighting, every |value| <= 1.
  for (const feature::FeatureMatrix* m : {&a, &b}) {
    for (std::size_t i = 0; i < m->rows(); ++i) {
      const std::span<const double> row = (*m)[i];
      for (std::size_t j = 0; j < feature::kFeatureCount; ++j) {
        EXPECT_LE(std::fabs(row[j] * w[j]), 1.0 + 1e-9);
      }
    }
  }
}

TEST(Distance, MatrixMatchesScalarFunction) {
  const feature::FeatureMatrix a = random_features(5, 3);
  const feature::FeatureMatrix b = random_features(7, 4);
  const std::vector<double> w = core::maxabs_weights(a, b);
  const core::DistanceMatrix d = core::distance_matrix(a, b, w);
  ASSERT_EQ(d.rows(), 5u);
  ASSERT_EQ(d.cols(), 7u);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 7; ++j) {
      EXPECT_NEAR(d.at(i, j), core::weighted_distance(a[i], b[j], w), 1e-4);
    }
  }
}

TEST(Distance, IdenticalVectorsHaveZeroDistance) {
  feature::FeatureMatrix a(1);
  std::fill(a[0].begin(), a[0].end(), 3.0);
  feature::FeatureMatrix b(1);
  std::fill(b[0].begin(), b[0].end(), 3.0);
  const core::DistanceMatrix d = core::distance_matrix(a, b);
  EXPECT_NEAR(d.at(0, 0), 0.0, 1e-9);
}

TEST(Distance, KernelCountersAreRecorded) {
  // Pins the instrumentation contract: a distance_matrix fill followed
  // by a greedy search must land its work counters in the installed
  // registry (cells/flops are emitted BEFORE the kernel returns — this
  // test exists because a refactor could silently strand them after a
  // return and the macros would never fire).
  obs::MetricsRegistry registry;
  auto* previous = obs::install_registry(&registry);

  const feature::FeatureMatrix a = random_features(4, 31);
  const feature::FeatureMatrix b = random_features(9, 32);
  const core::DistanceMatrix d = core::distance_matrix(a, b);
  const core::LinkResult link = core::nearest_link_search(d);
  obs::install_registry(previous);

  ASSERT_EQ(link.candidate.size(), 4u);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("distance.calls"), 1u);
  EXPECT_EQ(snap.counter("distance.rows"), 4u);
  EXPECT_EQ(snap.counter("distance.cells"), 36u);
  EXPECT_GT(snap.counter("distance.flops"), 0u);
  EXPECT_EQ(snap.counter("nearest_link.links"), 4u);
}

// ------------------------------------------------------- nearest link --

core::DistanceMatrix random_matrix(std::size_t m, std::size_t n,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  core::DistanceMatrix d(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      d.at(i, j) = static_cast<float>(rng.uniform(0.0, 100.0));
    }
  }
  return d;
}

class NearestLinkProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(NearestLinkProperty, InvariantsAgainstExactAssignment) {
  const auto [m, n, seed] = GetParam();
  const core::DistanceMatrix d = random_matrix(m, n, seed);

  const core::LinkResult greedy = core::nearest_link_search(d);
  const core::LinkResult exact = core::exact_assignment(d);
  const core::LinkResult knn = core::row_argmin(d);

  // Every security patch gets exactly one DISTINCT candidate.
  ASSERT_EQ(greedy.candidate.size(), m);
  const std::set<std::size_t> unique(greedy.candidate.begin(),
                                     greedy.candidate.end());
  EXPECT_EQ(unique.size(), m);
  for (std::size_t c : greedy.candidate) EXPECT_LT(c, n);

  // Exact is a lower bound on greedy; per-row argmin is a lower bound on
  // exact (it relaxes distinctness).
  EXPECT_GE(greedy.total_distance + 1e-6, exact.total_distance);
  EXPECT_GE(exact.total_distance + 1e-6, knn.total_distance);

  // Exact result is also a valid distinct assignment.
  const std::set<std::size_t> exact_unique(exact.candidate.begin(),
                                           exact.candidate.end());
  EXPECT_EQ(exact_unique.size(), m);

  // Greedy approximation quality: with plenty of spare columns the last
  // rows still have good options, so the gap stays small. (On square
  // matrices the forced final assignments can be arbitrarily bad, which
  // is exactly why the paper searches a pool much larger than M.)
  if (exact.total_distance > 0.0 && n >= 2 * m) {
    EXPECT_LE(greedy.total_distance, exact.total_distance * 2.0 + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NearestLinkProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 3, 10, 25),
                       ::testing::Values<std::size_t>(25, 60),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(NearestLink, SquareMatrixUsesEveryColumn) {
  const core::DistanceMatrix d = random_matrix(8, 8, 5);
  const core::LinkResult r = core::nearest_link_search(d);
  std::set<std::size_t> cols(r.candidate.begin(), r.candidate.end());
  EXPECT_EQ(cols.size(), 8u);
}

TEST(NearestLink, RowsExceedColumnsRejected) {
  const core::DistanceMatrix d = random_matrix(5, 3, 1);
  EXPECT_THROW(core::nearest_link_search(d), std::invalid_argument);
  EXPECT_THROW(core::exact_assignment(d), std::invalid_argument);
}

TEST(NearestLink, PicksObviousNearestWhenFree) {
  // Distances engineered: row 0 close to col 2, row 1 close to col 0.
  core::DistanceMatrix d(2, 3);
  d.at(0, 0) = 5;  d.at(0, 1) = 9;  d.at(0, 2) = 1;
  d.at(1, 0) = 2;  d.at(1, 1) = 8;  d.at(1, 2) = 7;
  const core::LinkResult r = core::nearest_link_search(d);
  EXPECT_EQ(r.candidate[0], 2u);
  EXPECT_EQ(r.candidate[1], 0u);
  EXPECT_NEAR(r.total_distance, 3.0, 1e-6);
}

TEST(NearestLink, CollisionFallsBackToSecondBest) {
  // Both rows want column 0; the greedy picks the globally closer row
  // first, the other falls back.
  core::DistanceMatrix d(2, 2);
  d.at(0, 0) = 1;  d.at(0, 1) = 10;
  d.at(1, 0) = 2;  d.at(1, 1) = 3;
  const core::LinkResult r = core::nearest_link_search(d);
  EXPECT_EQ(r.candidate[0], 0u);
  EXPECT_EQ(r.candidate[1], 1u);
  EXPECT_NEAR(r.total_distance, 4.0, 1e-6);
}

TEST(NearestLink, KnnContrastReusesCandidates) {
  // The paper's distinction: row_argmin may reuse one column for many
  // rows, nearest link never does.
  core::DistanceMatrix d(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    d.at(i, 0) = 1;
    d.at(i, 1) = 50;
    d.at(i, 2) = 60;
  }
  const core::LinkResult knn = core::row_argmin(d);
  const std::set<std::size_t> knn_cols(knn.candidate.begin(), knn.candidate.end());
  EXPECT_EQ(knn_cols.size(), 1u);

  const core::LinkResult link = core::nearest_link_search(d);
  const std::set<std::size_t> link_cols(link.candidate.begin(),
                                        link.candidate.end());
  EXPECT_EQ(link_cols.size(), 3u);
}

// ------------------------------------------------------------ augment --

TEST(Augment, RoundBeatsBaseRateOnSimulatedWorld) {
  corpus::WorldConfig config;
  config.repos = 6;
  config.nvd_security = 60;
  config.wild_pool = 1200;
  config.wild_security_rate = 0.08;
  config.seed = 11;
  corpus::World world = corpus::build_world(config);

  std::vector<const corpus::CommitRecord*> seed;
  for (const auto& r : world.nvd_security) seed.push_back(&r);
  std::vector<const corpus::CommitRecord*> pool;
  for (const auto& r : world.wild) pool.push_back(&r);

  core::AugmentationLoop loop(seed, world.oracle);
  loop.set_pool(pool);
  const core::RoundStats stats = loop.run_round();

  EXPECT_EQ(stats.candidates, seed.size());
  EXPECT_EQ(stats.pool_size, pool.size());
  // Nearest link should concentrate security patches well above the 8%
  // base rate.
  EXPECT_GT(stats.ratio, 0.16);
  EXPECT_EQ(loop.wild_security().size(), stats.verified_security);
  EXPECT_EQ(loop.nonsecurity().size(), stats.candidates - stats.verified_security);
  EXPECT_EQ(loop.pool_remaining(), pool.size() - stats.candidates);
  // Oracle effort equals the number of candidates verified.
  EXPECT_EQ(world.oracle.effort(), stats.candidates);
}

TEST(Augment, SecondRoundGrowsLabeledSet) {
  corpus::WorldConfig config;
  config.repos = 4;
  config.nvd_security = 30;
  config.wild_pool = 600;
  config.seed = 13;
  corpus::World world = corpus::build_world(config);

  std::vector<const corpus::CommitRecord*> seed;
  for (const auto& r : world.nvd_security) seed.push_back(&r);
  std::vector<const corpus::CommitRecord*> pool;
  for (const auto& r : world.wild) pool.push_back(&r);

  core::AugmentationLoop loop(seed, world.oracle);
  loop.set_pool(pool);
  const core::RoundStats r1 = loop.run_round();
  const core::RoundStats r2 = loop.run_round();
  EXPECT_EQ(r2.candidates, r1.candidates + r1.verified_security);
  EXPECT_EQ(r2.round, 2u);
}

TEST(Augment, RunStopsAtRatioThreshold) {
  corpus::WorldConfig config;
  config.repos = 3;
  config.nvd_security = 20;
  config.wild_pool = 200;
  config.wild_security_rate = 0.0;  // nothing to find
  config.seed = 17;
  corpus::World world = corpus::build_world(config);

  std::vector<const corpus::CommitRecord*> seed;
  for (const auto& r : world.nvd_security) seed.push_back(&r);
  std::vector<const corpus::CommitRecord*> pool;
  for (const auto& r : world.wild) pool.push_back(&r);

  core::AugmentationLoop loop(seed, world.oracle);
  loop.set_pool(pool);
  core::AugmentOptions opt;
  opt.max_rounds = 5;
  opt.stop_ratio = 0.05;
  const auto rounds = loop.run(opt);
  EXPECT_LT(rounds.size(), 5u);  // stops early: ratio 0 < threshold
}

TEST(Augment, TinyPoolTakesEverything) {
  corpus::WorldConfig config;
  config.repos = 3;
  config.nvd_security = 20;
  config.wild_pool = 10;
  config.seed = 19;
  corpus::World world = corpus::build_world(config);

  std::vector<const corpus::CommitRecord*> seed;
  for (const auto& r : world.nvd_security) seed.push_back(&r);
  std::vector<const corpus::CommitRecord*> pool;
  for (const auto& r : world.wild) pool.push_back(&r);

  core::AugmentationLoop loop(seed, world.oracle);
  loop.set_pool(pool);
  const core::RoundStats stats = loop.run_round();
  EXPECT_EQ(stats.candidates, 10u);
  EXPECT_EQ(loop.pool_remaining(), 0u);
}

// ---------------------------------------------------------- baselines --

TEST(Baselines, BruteForceSamplesWithoutReplacement) {
  const auto sel = core::brute_force_select(100, 30, 1);
  EXPECT_EQ(sel.size(), 30u);
  EXPECT_EQ(std::set<std::size_t>(sel.begin(), sel.end()).size(), 30u);
  EXPECT_EQ(core::brute_force_select(5, 30, 1).size(), 5u);
}

TEST(Baselines, PseudoLabelRanksPlantedPositivesFirst) {
  // Train on well-separated features, then plant obvious positives in a
  // pool of negatives; they must surface in the top-k.
  util::Rng rng(3);
  ml::Dataset train;
  feature::FeatureMatrix pool(40);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x(feature::kFeatureCount);
    const int label = i % 2;
    for (double& v : x) v = rng.normal(label == 1 ? 2.0 : -2.0, 0.5);
    train.push_back(std::move(x), label);
  }
  for (std::size_t i = 0; i < 40; ++i) {
    const bool planted = i < 5;
    for (std::size_t j = 0; j < feature::kFeatureCount; ++j) {
      pool[i][j] = rng.normal(planted ? 2.0 : -2.0, 0.5);
    }
  }
  const auto top = core::pseudo_label_select(train, pool, 5, 7);
  ASSERT_EQ(top.size(), 5u);
  for (std::size_t idx : top) EXPECT_LT(idx, 5u);
}

TEST(Baselines, UncertaintySelectsOnlyUnanimous) {
  util::Rng rng(5);
  ml::Dataset train;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x(feature::kFeatureCount);
    const int label = i % 2;
    for (double& v : x) v = rng.normal(label == 1 ? 1.5 : -1.5, 0.4);
    train.push_back(std::move(x), label);
  }
  feature::FeatureMatrix pool(20);
  for (std::size_t i = 0; i < 20; ++i) {
    const bool positive = i < 6;
    for (std::size_t j = 0; j < feature::kFeatureCount; ++j) {
      pool[i][j] = rng.normal(positive ? 1.5 : -1.5, 0.4);
    }
  }
  const auto sel = core::uncertainty_select(train, pool, 9);
  for (std::size_t idx : sel) EXPECT_LT(idx, 6u);
  EXPECT_GE(sel.size(), 3u);  // most planted positives survive consensus
}

// ---------------------------------------------------------- categorize --

TEST(Categorize, AgreesWithGroundTruthAboveChance) {
  util::Rng rng(23);
  std::size_t agree = 0;
  const std::size_t total = 240;
  for (std::size_t i = 0; i < total; ++i) {
    const auto types = corpus::security_types();
    const corpus::PatchType type = types[i % types.size()];
    corpus::CommitOptions opt;
    opt.noise_file_prob = 0.0;
    opt.multi_file_prob = 0.0;
    const corpus::CommitRecord record = corpus::make_commit(rng, "r", type, opt);
    agree += (core::categorize(record.patch) == type);
  }
  // Far above the 1/12 chance level; the rule set is approximate, not
  // perfect, so do not demand full agreement.
  EXPECT_GT(agree, total / 3);
}

TEST(Categorize, SpecificShapes) {
  // A pure-move patch.
  diff::Patch move;
  {
    diff::FileDiff fd;
    fd.old_path = fd.new_path = "a.c";
    diff::Hunk h;
    h.old_start = h.new_start = 1;
    h.lines = {{diff::LineKind::kRemoved, "free(p);"},
               {diff::LineKind::kContext, "use(p);"},
               {diff::LineKind::kAdded, "free(p);"}};
    h.old_count = 2;
    h.new_count = 2;
    fd.hunks.push_back(h);
    move.files.push_back(fd);
  }
  EXPECT_EQ(core::categorize(move), corpus::PatchType::kMoveStatement);

  // A NULL-check addition.
  diff::Patch null_check;
  {
    diff::FileDiff fd;
    fd.old_path = fd.new_path = "a.c";
    diff::Hunk h;
    h.old_start = h.new_start = 1;
    h.lines = {{diff::LineKind::kAdded, "if (ptr == NULL)"},
               {diff::LineKind::kAdded, "    return -1;"},
               {diff::LineKind::kContext, "use(ptr);"}};
    h.old_count = 1;
    h.new_count = 3;
    fd.hunks.push_back(h);
    null_check.files.push_back(fd);
  }
  EXPECT_EQ(core::categorize(null_check), corpus::PatchType::kNullCheck);

  // Empty patch.
  EXPECT_EQ(core::categorize(diff::Patch{}), corpus::PatchType::kOther);
}

// ------------------------------------------------------------- facade --

TEST(PatchDbFacade, EndToEndSmallBuild) {
  core::BuildOptions options;
  options.world.repos = 4;
  options.world.nvd_security = 40;
  options.world.wild_pool = 600;
  options.world.seed = 29;
  options.augment.max_rounds = 2;
  options.synthesis.max_per_patch = 2;

  const core::PatchDb db = core::build_patchdb(options);
  EXPECT_GT(db.nvd_security.size(), 20u);
  EXPECT_GT(db.wild_security.size(), 0u);
  EXPECT_GT(db.nonsecurity.size(), 0u);
  EXPECT_GT(db.synthetic.size(), 0u);
  EXPECT_EQ(db.rounds.size(), 2u);
  EXPECT_EQ(db.verification_effort,
            db.rounds[0].candidates + db.rounds[1].candidates);
  EXPECT_EQ(db.natural_security_count(),
            db.nvd_security.size() + db.wild_security.size());
}

// The build carries the loop's rows: one per natural patch in manifest
// order (nvd, wild, nonsecurity), each bitwise the row feature::extract
// gives its patch, over two rounds of finds and rejections.
TEST(PatchDbFacade, CarriesOneRowPerNaturalPatchInManifestOrder) {
  core::BuildOptions options;
  options.world.repos = 4;
  options.world.nvd_security = 40;
  options.world.wild_pool = 600;
  options.world.seed = 29;
  options.augment.max_rounds = 2;
  options.run_synthesis = false;

  const core::PatchDb db = core::build_patchdb(options);
  ASSERT_EQ(db.features.rows(), db.nvd_security.size() + db.wild_security.size() +
                                    db.nonsecurity.size());
  ASSERT_EQ(db.features.cols(), feature::kFeatureCount);
  std::size_t row = 0;
  for (const auto* records : {&db.nvd_security, &db.wild_security, &db.nonsecurity}) {
    for (const corpus::CommitRecord& record : *records) {
      const feature::FeatureVector expected = feature::extract(record.patch);
      EXPECT_EQ(std::memcmp(db.features[row].data(), expected.data(), sizeof(expected)), 0)
          << "row " << row << " (" << record.patch.commit << ")";
      ++row;
    }
  }
}

}  // namespace
}  // namespace patchdb
