// Tests for the ML substrate: datasets, metrics, scalers, the ten-member
// classifier panel, SMOTE, the consensus ensemble, and k-fold cross
// validation.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <string>

#include "ml/bayes.h"
#include "ml/classifier.h"
#include "ml/crossval.h"
#include "ml/data.h"
#include "ml/ensemble.h"
#include "ml/forest.h"
#include "ml/knn.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "ml/normalize.h"
#include "ml/smo.h"
#include "ml/smote.h"
#include "ml/tree.h"
#include "util/rng.h"

namespace patchdb {
namespace {

using ml::Dataset;

/// Two Gaussian blobs, linearly separable with a small margin.
Dataset blobs(std::size_t n, std::uint64_t seed, double separation = 2.5,
              std::size_t dims = 6) {
  util::Rng rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    std::vector<double> x(dims);
    const double center = label == 1 ? separation : -separation;
    for (double& v : x) v = rng.normal(center, 1.0);
    data.push_back(std::move(x), label);
  }
  return data;
}

double accuracy_on(const ml::Classifier& clf, const Dataset& test) {
  const std::vector<int> pred = clf.predict_all(test);
  return ml::confusion(test.labels(), pred).accuracy();
}

// -------------------------------------------------------------- data --

TEST(Dataset, PushBackAndCounts) {
  Dataset d;
  d.push_back({1.0, 2.0}, 1);
  d.push_back({3.0, 4.0}, 0);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.dims(), 2u);
  EXPECT_EQ(d.positives(), 1u);
  EXPECT_EQ(d.negatives(), 1u);
}

TEST(Dataset, RaggedRowsRejected) {
  Dataset d;
  d.push_back({1.0, 2.0}, 1);
  EXPECT_THROW(d.push_back({1.0}, 0), std::invalid_argument);
  EXPECT_THROW(Dataset({{1.0}, {1.0, 2.0}}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(Dataset({{1.0}}, {0, 1}), std::invalid_argument);
}

TEST(Dataset, SelectSubset) {
  const Dataset d = blobs(10, 1);
  const std::vector<std::size_t> idx = {0, 2, 4};
  const Dataset sub = d.select(idx);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub.label(1), d.label(2));
}

TEST(Split, SizesAndDisjointness) {
  const Dataset d = blobs(100, 2);
  const ml::TrainTestSplit split = ml::split(d, 0.8, 3);
  EXPECT_EQ(split.train.size(), 80u);
  EXPECT_EQ(split.test.size(), 20u);
}

TEST(Split, StratifiedPreservesClassBalance) {
  util::Rng rng(9);
  Dataset d;
  for (int i = 0; i < 200; ++i) {
    d.push_back({rng.normal(), rng.normal()}, i < 40 ? 1 : 0);  // 20% positive
  }
  const ml::TrainTestSplit split = ml::stratified_split(d, 0.75, 4);
  const double train_pos = static_cast<double>(split.train.positives()) /
                           static_cast<double>(split.train.size());
  const double test_pos = static_cast<double>(split.test.positives()) /
                          static_cast<double>(split.test.size());
  EXPECT_NEAR(train_pos, 0.2, 0.02);
  EXPECT_NEAR(test_pos, 0.2, 0.02);
}

// ------------------------------------------------------------ metrics --

TEST(Metrics, ConfusionAndDerived) {
  const std::vector<int> truth = {1, 1, 1, 0, 0, 0, 0, 1};
  const std::vector<int> pred = {1, 1, 0, 0, 0, 1, 0, 0};
  const ml::Confusion c = ml::confusion(truth, pred);
  EXPECT_EQ(c.tp, 2u);
  EXPECT_EQ(c.fn, 2u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.tn, 3u);
  EXPECT_NEAR(c.precision(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(c.recall(), 0.5, 1e-12);
  EXPECT_NEAR(c.accuracy(), 5.0 / 8.0, 1e-12);
  EXPECT_NEAR(c.f1(), 2 * (2.0 / 3.0) * 0.5 / (2.0 / 3.0 + 0.5), 1e-12);
}

TEST(Metrics, EmptyDenominatorsAreZero) {
  const ml::Confusion c = ml::confusion(std::vector<int>{0}, std::vector<int>{0});
  EXPECT_EQ(c.precision(), 0.0);
  EXPECT_EQ(c.recall(), 0.0);
  EXPECT_EQ(c.f1(), 0.0);
}

TEST(Metrics, SizeMismatchThrows) {
  EXPECT_THROW(ml::confusion(std::vector<int>{1}, std::vector<int>{1, 0}),
               std::invalid_argument);
}

// ---------------------------------------------------------- normalize --

TEST(MaxAbsScaler, BoundsAndSignPreservation) {
  ml::MaxAbsScaler scaler;
  scaler.fit({{-10.0, 2.0, 0.0}, {5.0, -4.0, 0.0}});
  const std::vector<double> t = scaler.transform(std::vector<double>{-10.0, 2.0, 0.0});
  EXPECT_DOUBLE_EQ(t[0], -1.0);
  EXPECT_DOUBLE_EQ(t[1], 0.5);
  EXPECT_DOUBLE_EQ(t[2], 0.0);  // constant-zero dim: weight 1
}

TEST(MaxAbsScaler, PropertyAllTransformedWithinUnitBall) {
  util::Rng rng(11);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 50; ++i) {
    rows.push_back({rng.uniform(-100, 100), rng.uniform(0, 5), rng.normal()});
  }
  ml::MaxAbsScaler scaler;
  scaler.fit(rows);
  for (const auto& row : rows) {
    for (double v : scaler.transform(row)) {
      EXPECT_GE(v, -1.0 - 1e-12);
      EXPECT_LE(v, 1.0 + 1e-12);
    }
  }
}

TEST(MaxAbsScaler, DimMismatchThrows) {
  ml::MaxAbsScaler scaler;
  scaler.fit({{1.0, 2.0}});
  EXPECT_THROW(scaler.transform(std::vector<double>{1.0}), std::invalid_argument);
  ml::MaxAbsScaler unfit;
  const std::vector<std::vector<double>> empty;
  EXPECT_THROW(unfit.fit(empty), std::invalid_argument);
}

TEST(ZScoreScaler, CentersAndScales) {
  ml::ZScoreScaler scaler;
  scaler.fit({{0.0}, {10.0}});
  const std::vector<double> t = scaler.transform(std::vector<double>{10.0});
  EXPECT_NEAR(t[0], 1.0, 1e-12);  // (10-5)/5
}

// -------------------------------------------------- classifier panel --

struct PanelCase {
  std::string name;
  std::function<std::unique_ptr<ml::Classifier>()> make;
  double min_accuracy;
};

// Without this, gtest prints the raw bytes of the case, heap pointers
// included, into every test name, so the names change from run to run.
void PrintTo(const PanelCase& c, std::ostream* os) { *os << c.name; }

class PanelSeparable : public ::testing::TestWithParam<PanelCase> {};

TEST_P(PanelSeparable, LearnsSeparableBlobs) {
  const PanelCase& c = GetParam();
  const Dataset train = blobs(400, 21);
  const Dataset test = blobs(200, 22);
  auto clf = c.make();
  clf->fit(train, 7);
  EXPECT_GE(accuracy_on(*clf, test), c.min_accuracy) << c.name;
}

TEST_P(PanelSeparable, ScoresAreProbabilities) {
  const PanelCase& c = GetParam();
  const Dataset train = blobs(200, 31);
  auto clf = c.make();
  clf->fit(train, 9);
  for (std::size_t i = 0; i < train.size(); i += 13) {
    const double s = clf->predict_score(train.row(i));
    EXPECT_GE(s, 0.0) << c.name;
    EXPECT_LE(s, 1.0) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMembers, PanelSeparable,
    ::testing::Values(
        PanelCase{"forest", [] { return std::make_unique<ml::RandomForest>(); }, 0.93},
        PanelCase{"tree", [] { return std::make_unique<ml::DecisionTree>(); }, 0.90},
        PanelCase{"reptree", [] { return std::make_unique<ml::REPTree>(); }, 0.88},
        PanelCase{"logreg", [] { return std::make_unique<ml::LogisticRegression>(); }, 0.93},
        PanelCase{"svm", [] { return std::make_unique<ml::LinearSVM>(); }, 0.93},
        PanelCase{"sgd", [] { return std::make_unique<ml::SGDClassifier>(); }, 0.90},
        PanelCase{"smo", [] { return std::make_unique<ml::SmoSVM>(); }, 0.90},
        PanelCase{"gnb", [] { return std::make_unique<ml::GaussianNB>(); }, 0.93},
        PanelCase{"bayesnet", [] { return std::make_unique<ml::DiscretizedBayes>(); }, 0.90},
        PanelCase{"perceptron", [] { return std::make_unique<ml::VotedPerceptron>(); }, 0.90},
        PanelCase{"knn", [] { return std::make_unique<ml::KnnClassifier>(); }, 0.93}),
    [](const ::testing::TestParamInfo<PanelCase>& info) {
      return info.param.name;
    });

TEST(DecisionTree, RespectsMaxDepth) {
  ml::TreeOptions opt;
  opt.max_depth = 2;
  ml::DecisionTree tree(opt);
  tree.fit(blobs(300, 41, 1.0), 1);
  EXPECT_LE(tree.depth(), 3u);  // root + 2 levels
}

TEST(DecisionTree, PureLeafShortCircuit) {
  Dataset d;
  for (int i = 0; i < 20; ++i) d.push_back({static_cast<double>(i)}, 1);
  ml::DecisionTree tree;
  tree.fit(d, 1);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict_score(std::vector<double>{3.0}), 1.0);
}

TEST(DecisionTree, EmptyFitYieldsNeutralScore) {
  ml::DecisionTree tree;
  tree.fit(Dataset{}, 1);
  EXPECT_DOUBLE_EQ(tree.predict_score(std::vector<double>{}), 0.5);
}

TEST(REPTree, PrunesNoisyTree) {
  // Noisy labels force an overgrown tree; REP should cut nodes vs CART.
  util::Rng rng(55);
  Dataset d;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-1, 1);
    int label = x > 0.0 ? 1 : 0;
    if (rng.chance(0.25)) label = 1 - label;  // 25% label noise
    d.push_back({x, rng.uniform(-1, 1), rng.uniform(-1, 1)}, label);
  }
  ml::DecisionTree cart;
  cart.fit(d, 3);
  ml::REPTree rep;
  rep.fit(d, 3);
  // Count effective (reachable, unpruned) structure via depth proxy.
  EXPECT_LE(rep.depth(), cart.depth());
}

TEST(RandomForest, AveragesTrees) {
  ml::ForestOptions opt;
  opt.trees = 10;
  ml::RandomForest forest(opt);
  forest.fit(blobs(200, 61), 5);
  EXPECT_EQ(forest.tree_count(), 10u);
}

TEST(VotedPerceptron, ScoreReflectsVoteMargin) {
  ml::VotedPerceptron vp(5);
  const Dataset train = blobs(300, 71);
  vp.fit(train, 3);
  // Far-away points should have extreme scores.
  std::vector<double> far_pos(6, 8.0);
  std::vector<double> far_neg(6, -8.0);
  EXPECT_GT(vp.predict_score(far_pos), 0.9);
  EXPECT_LT(vp.predict_score(far_neg), 0.1);
}

TEST(Knn, NeighborsAreDistinctAndSorted) {
  ml::KnnClassifier knn(3);
  const Dataset train = blobs(50, 81);
  knn.fit(train, 1);
  const auto neighbors = knn.neighbors(train.row(0), 5);
  EXPECT_EQ(neighbors.size(), 5u);
  const std::set<std::size_t> unique(neighbors.begin(), neighbors.end());
  EXPECT_EQ(unique.size(), 5u);
  EXPECT_EQ(neighbors[0], 0u);  // the row itself is its nearest neighbor
}

// -------------------------------------------------------------- SMOTE --

TEST(Smote, BalancesMinorityClass) {
  util::Rng rng(91);
  Dataset d;
  for (int i = 0; i < 100; ++i) d.push_back({rng.normal(), rng.normal()}, 0);
  for (int i = 0; i < 20; ++i) d.push_back({rng.normal(5, 1), rng.normal(5, 1)}, 1);

  const Dataset out = ml::smote(d, {.k = 5, .multiplier = 3.0}, 7);
  EXPECT_EQ(out.negatives(), 100u);
  EXPECT_NEAR(static_cast<double>(out.positives()), 20.0 + 60.0, 12.0);
  // Synthetic rows stay inside the minority blob's convex hull region.
  for (std::size_t i = d.size(); i < out.size(); ++i) {
    EXPECT_EQ(out.label(i), 1);
    EXPECT_GT(out.row(i)[0], 1.0);
  }
}

TEST(Smote, DegenerateInputsPassThrough) {
  Dataset d;
  d.push_back({1.0}, 1);
  const Dataset out = ml::smote(d, {}, 1);
  EXPECT_EQ(out.size(), 1u);
}

TEST(Smote, ZeroNeighborsReturnsInputUnchanged) {
  // options.k = 0 used to reach rng.index(0), which throws (or worse):
  // with no neighbors to interpolate toward there is nothing to
  // synthesize, so the input passes through.
  Dataset d;
  d.push_back({0.0, 0.0}, 0);
  d.push_back({1.0, 1.0}, 0);
  d.push_back({0.9, 0.9}, 0);
  d.push_back({5.0, 5.0}, 1);
  d.push_back({5.1, 5.1}, 1);
  const Dataset out = ml::smote(d, {.k = 0, .multiplier = 3.0}, 7);
  EXPECT_EQ(out.size(), d.size());
  EXPECT_EQ(out.positives(), d.positives());
}

TEST(Smote, NonPositiveMultiplierReturnsInputUnchanged) {
  // multiplier = 0 made keep_prob 0/0 = NaN; nothing to synthesize.
  util::Rng rng(13);
  Dataset d;
  for (int i = 0; i < 30; ++i) d.push_back({rng.normal(), rng.normal()}, 0);
  for (int i = 0; i < 10; ++i) d.push_back({rng.normal(3, 1), rng.normal(3, 1)}, 1);
  EXPECT_EQ(ml::smote(d, {.k = 5, .multiplier = 0.0}, 7).size(), d.size());
  EXPECT_EQ(ml::smote(d, {.k = 5, .multiplier = -1.0}, 7).size(), d.size());
}

// ----------------------------------------------------------- ensemble --

TEST(Ensemble, PanelHasTenMembers) {
  ml::ConsensusEnsemble ensemble(ml::make_weka_panel());
  EXPECT_EQ(ensemble.size(), 10u);
}

TEST(Ensemble, UnanimousOnCleanData) {
  ml::ConsensusEnsemble ensemble(ml::make_weka_panel());
  ensemble.fit(blobs(400, 101, 4.0), 11);
  std::vector<double> clearly_pos(6, 4.0);
  std::vector<double> clearly_neg(6, -4.0);
  EXPECT_TRUE(ensemble.unanimous(clearly_pos));
  EXPECT_EQ(ensemble.agreement(clearly_neg), 0u);
}

// ---------------------------------------------------------- crossval --

TEST(CrossVal, FiveFoldOnSeparableData) {
  const Dataset data = blobs(300, 3, 2.0, 4);
  const ml::CrossValResult result = ml::cross_validate(
      data, 5, [] { return std::make_unique<ml::RandomForest>(); }, 7);
  ASSERT_EQ(result.folds.size(), 5u);
  EXPECT_GT(result.mean_accuracy(), 0.9);
  EXPECT_GT(result.mean_precision(), 0.9);
  EXPECT_GT(result.mean_recall(), 0.9);
  EXPECT_GT(result.mean_f1(), 0.9);
}

TEST(CrossVal, FoldsCoverEveryRowOnce) {
  const Dataset data = blobs(100, 5, 2.0, 4);
  const ml::CrossValResult result = ml::cross_validate(
      data, 4, [] { return std::make_unique<ml::RandomForest>(); }, 9);
  std::size_t tested = 0;
  for (const ml::Confusion& c : result.folds) {
    tested += c.tp + c.fp + c.tn + c.fn;
  }
  EXPECT_EQ(tested, data.size());
}

TEST(CrossVal, RejectsBadK) {
  const Dataset data = blobs(10, 7, 2.0, 4);
  const auto factory = [] { return std::make_unique<ml::RandomForest>(); };
  EXPECT_THROW(ml::cross_validate(data, 1, factory, 1), std::invalid_argument);
  EXPECT_THROW(ml::cross_validate(data, 11, factory, 1), std::invalid_argument);
}

}  // namespace
}  // namespace patchdb
