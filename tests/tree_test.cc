// Tests for hamlet/ml/tree: criteria, CART learner, printer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <string>

#include "hamlet/common/rng.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/view.h"
#include "hamlet/ml/metrics.h"
#include "hamlet/ml/tree/criterion.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "hamlet/ml/tree/tree_printer.h"

namespace hamlet {
namespace ml {
namespace {

// -------------------------------------------------------------- criterion --

TEST(CriterionTest, GiniBounds) {
  EXPECT_DOUBLE_EQ(GiniImpurity(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(GiniImpurity(10, 10), 0.0);
  EXPECT_DOUBLE_EQ(GiniImpurity(5, 10), 0.5);  // 2 * 0.5 * 0.5
  EXPECT_DOUBLE_EQ(GiniImpurity(0, 0), 0.0);
}

TEST(CriterionTest, EntropyBounds) {
  EXPECT_DOUBLE_EQ(Entropy(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(Entropy(10, 10), 0.0);
  EXPECT_NEAR(Entropy(5, 10), std::log(2.0), 1e-12);
  EXPECT_GT(Entropy(5, 10), Entropy(1, 10));
}

TEST(CriterionTest, PerfectSplitGainEqualsParentRisk) {
  // Parent: 10 pos, 10 neg. Perfect split -> gain = 20 * I(0.5).
  for (auto c : {SplitCriterion::kGini, SplitCriterion::kInfoGain}) {
    const double gain = SplitGain(c, 10, 10, 0, 10);
    EXPECT_NEAR(gain, 20.0 * NodeImpurity(c, 10, 20), 1e-12);
  }
}

TEST(CriterionTest, UselessSplitHasZeroGain) {
  // Both children have the same class mix as the parent.
  for (auto c : {SplitCriterion::kGini, SplitCriterion::kInfoGain,
                 SplitCriterion::kGainRatio}) {
    EXPECT_NEAR(SplitScore(c, 5, 10, 5, 10), 0.0, 1e-9);
  }
}

TEST(CriterionTest, DegenerateSplitScoresZero) {
  for (auto c : {SplitCriterion::kGini, SplitCriterion::kInfoGain,
                 SplitCriterion::kGainRatio}) {
    EXPECT_DOUBLE_EQ(SplitScore(c, 0, 0, 10, 20), 0.0);
  }
}

TEST(CriterionTest, GainRatioPenalisesLopsidedSplits) {
  // Same information gain structure, but gain ratio divides by the branch
  // entropy, so a 50/50 split scores relatively higher than a 1/99 one.
  const double balanced = SplitScore(SplitCriterion::kGainRatio, 50, 50, 0, 50);
  const double lopsided = SplitScore(SplitCriterion::kGainRatio, 1, 1, 49, 99);
  EXPECT_GT(balanced, lopsided);
}

TEST(CriterionTest, Names) {
  EXPECT_STREQ(SplitCriterionName(SplitCriterion::kGini), "gini");
  EXPECT_STREQ(SplitCriterionName(SplitCriterion::kInfoGain), "info_gain");
  EXPECT_STREQ(SplitCriterionName(SplitCriterion::kGainRatio), "gain_ratio");
}

// ------------------------------------------------------------------ tree --

/// y = x0 (a single perfectly predictive binary feature) + a noise feature.
Dataset MakeSimpleDataset(size_t n, uint64_t seed) {
  Dataset d({{"signal", 2, FeatureRole::kHome, -1},
             {"noise", 4, FeatureRole::kHome, -1}});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t x = static_cast<uint32_t>(rng.UniformInt(2));
    d.AppendRowUnchecked({x, static_cast<uint32_t>(rng.UniformInt(4))},
                         static_cast<uint8_t>(x));
  }
  return d;
}

/// XOR of two binary features — requires depth >= 2 (not linearly
/// separable), the classic high-capacity sanity check.
Dataset MakeXorDataset(size_t n, uint64_t seed) {
  Dataset d({{"a", 2, FeatureRole::kHome, -1},
             {"b", 2, FeatureRole::kHome, -1}});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.UniformInt(2));
    const uint32_t b = static_cast<uint32_t>(rng.UniformInt(2));
    d.AppendRowUnchecked({a, b}, static_cast<uint8_t>(a ^ b));
  }
  return d;
}

TEST(DecisionTreeTest, FitsPerfectSignal) {
  Dataset data = MakeSimpleDataset(200, 1);
  DataView view(&data);
  DecisionTree tree({.criterion = SplitCriterion::kGini});
  ASSERT_TRUE(tree.Fit(view).ok());
  EXPECT_DOUBLE_EQ(Accuracy(tree, view), 1.0);
  EXPECT_LE(tree.depth(), 2u);
}

TEST(DecisionTreeTest, LearnsXorWithAllCriteria) {
  Dataset data = MakeXorDataset(400, 2);
  DataView view(&data);
  for (auto c : {SplitCriterion::kGini, SplitCriterion::kInfoGain,
                 SplitCriterion::kGainRatio}) {
    DecisionTree tree({.criterion = c, .minsplit = 10, .cp = 0.0});
    ASSERT_TRUE(tree.Fit(view).ok());
    EXPECT_DOUBLE_EQ(Accuracy(tree, view), 1.0)
        << SplitCriterionName(c);
  }
}

TEST(DecisionTreeTest, EmptyTrainingFails) {
  Dataset data = MakeSimpleDataset(10, 1);
  DataView view(&data, {}, {0, 1});
  DecisionTree tree;
  EXPECT_FALSE(tree.Fit(view).ok());
}

TEST(DecisionTreeTest, PureDataYieldsSingleLeaf) {
  Dataset d({{"f", 2, FeatureRole::kHome, -1}});
  for (int i = 0; i < 20; ++i) {
    d.AppendRowUnchecked({static_cast<uint32_t>(i % 2)}, 1);
  }
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(DataView(&d)).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_EQ(tree.Predict(DataView(&d), 0), 1);
}

TEST(DecisionTreeTest, MinsplitStopsGrowth) {
  Dataset data = MakeXorDataset(100, 3);
  DataView view(&data);
  DecisionTree big({.minsplit = 1000, .cp = 0.0});
  ASSERT_TRUE(big.Fit(view).ok());
  EXPECT_EQ(big.num_nodes(), 1u);  // can never split
}

TEST(DecisionTreeTest, HighCpPrunesEverything) {
  // XOR's first split has ~zero marginal gain, so a high cp blocks it.
  Dataset data = MakeXorDataset(400, 4);
  DataView view(&data);
  DecisionTree pruned({.minsplit = 10, .cp = 0.5});
  ASSERT_TRUE(pruned.Fit(view).ok());
  EXPECT_EQ(pruned.num_nodes(), 1u);
  DecisionTree grown({.minsplit = 10, .cp = 0.0});
  ASSERT_TRUE(grown.Fit(view).ok());
  EXPECT_GT(grown.num_nodes(), 1u);
}

TEST(DecisionTreeTest, MaxDepthIsRespected) {
  Dataset data = MakeXorDataset(400, 5);
  DataView view(&data);
  DecisionTree tree({.minsplit = 2, .cp = 0.0, .max_depth = 1});
  ASSERT_TRUE(tree.Fit(view).ok());
  EXPECT_LE(tree.depth(), 1u);
}

TEST(DecisionTreeTest, DeterministicAcrossFits) {
  Dataset data = MakeXorDataset(300, 6);
  DataView view(&data);
  DecisionTree a({.cp = 0.0}), b({.cp = 0.0});
  ASSERT_TRUE(a.Fit(view).ok());
  ASSERT_TRUE(b.Fit(view).ok());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (size_t i = 0; i < view.num_rows(); ++i) {
    EXPECT_EQ(a.Predict(view, i), b.Predict(view, i));
  }
}

TEST(DecisionTreeTest, LargeDomainCategoricalSplit) {
  // A 100-value categorical feature where even codes are positive: the
  // Breiman ordering must find a perfect subset split at depth 1.
  Dataset d({{"big", 100, FeatureRole::kForeignKey, 0}});
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const uint32_t v = static_cast<uint32_t>(rng.UniformInt(100));
    d.AppendRowUnchecked({v}, static_cast<uint8_t>(v % 2));
  }
  DataView view(&d);
  DecisionTree tree({.minsplit = 10, .cp = 0.0});
  ASSERT_TRUE(tree.Fit(view).ok());
  EXPECT_DOUBLE_EQ(Accuracy(tree, view), 1.0);
  EXPECT_EQ(tree.depth(), 1u);  // one subset split suffices
}

TEST(DecisionTreeTest, UnseenCodeMajorityBranchFallback) {
  // Train without code 3 in the domain-4 feature; predict on it.
  Dataset train_data({{"f", 4, FeatureRole::kHome, -1},
                      {"g", 2, FeatureRole::kHome, -1}});
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const uint32_t v = static_cast<uint32_t>(rng.UniformInt(3));  // 0..2
    train_data.AppendRowUnchecked(
        {v, static_cast<uint32_t>(rng.UniformInt(2))},
        static_cast<uint8_t>(v == 2));
  }
  DataView train(&train_data);
  DecisionTree tree({.cp = 0.0});
  ASSERT_TRUE(tree.Fit(train).ok());
  // The root splits f into {0, 1} (label 0, about 2/3 of the rows) and
  // {2} (label 1); both children are pure.
  ASSERT_EQ(tree.num_nodes(), 3u);

  Dataset test_data({{"f", 4, FeatureRole::kHome, -1},
                     {"g", 2, FeatureRole::kHome, -1}});
  test_data.AppendRowUnchecked({3, 0}, 0);  // unseen code 3
  test_data.AppendRowUnchecked({2, 0}, 1);  // seen, routed right
  DataView test(&test_data);
  // Code 3 follows the root's majority branch, the {0, 1} side.
  EXPECT_EQ(tree.Predict(test, 0), 0);
  EXPECT_EQ(tree.Predict(test, 1), 1);
  EXPECT_EQ(tree.PredictAll(test), (std::vector<uint8_t>{0, 1}));
}

TEST(DecisionTreeTest, FeatureUseCountsTrackSplits) {
  Dataset data = MakeSimpleDataset(500, 9);
  DataView view(&data);
  DecisionTree tree({.cp = 0.0});
  ASSERT_TRUE(tree.Fit(view).ok());
  const std::vector<size_t> counts = tree.FeatureUseCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_GE(counts[0], 1u);  // the signal feature must be used
}

TEST(DecisionTreeTest, NameReflectsCriterion) {
  EXPECT_EQ(DecisionTree({.criterion = SplitCriterion::kGini}).name(),
            "dt-gini");
  EXPECT_EQ(DecisionTree({.criterion = SplitCriterion::kGainRatio}).name(),
            "dt-gain_ratio");
}

// --------------------------------------------------------------- printer --

TEST(TreePrinterTest, RendersStructure) {
  Dataset data = MakeSimpleDataset(100, 10);
  DataView view(&data);
  DecisionTree tree({.cp = 0.0});
  ASSERT_TRUE(tree.Fit(view).ok());
  const std::string out = PrintTree(tree, view);
  EXPECT_NE(out.find("DecisionTree[dt-gini]"), std::string::npos);
  EXPECT_NE(out.find("signal"), std::string::npos);
  EXPECT_NE(out.find("leaf"), std::string::npos);
}

TEST(TreePrinterTest, UnfittedTree) {
  DecisionTree tree;
  Dataset data = MakeSimpleDataset(10, 1);
  EXPECT_EQ(PrintTree(tree, DataView(&data)), "(unfitted tree)\n");
}

TEST(TreePrinterTest, FeatureUsageTable) {
  Dataset data = MakeSimpleDataset(100, 11);
  DataView view(&data);
  DecisionTree tree({.cp = 0.0});
  ASSERT_TRUE(tree.Fit(view).ok());
  const std::string out = PrintFeatureUsage(tree, view);
  EXPECT_NE(out.find("signal"), std::string::npos);
  EXPECT_NE(out.find("noise"), std::string::npos);
}

// ------------------------------------------- parameterised property sweep --

struct TreeParam {
  SplitCriterion criterion;
  size_t minsplit;
  double cp;
};

/// Prints a case as a name built from its fields, e.g. "gini_ms10_cp0_001".
/// gtest_discover_tests puts the printed parameter in the ctest name;
/// gtest's default prints a struct's bytes, padding included, which
/// differ from build to build.
void PrintTo(const TreeParam& q, std::ostream* os) {
  switch (q.criterion) {
    case SplitCriterion::kGini:
      *os << "gini";
      break;
    case SplitCriterion::kInfoGain:
      *os << "info_gain";
      break;
    case SplitCriterion::kGainRatio:
      *os << "gain_ratio";
      break;
  }
  std::ostringstream cp;
  cp << q.cp;
  std::string cp_name = cp.str();
  std::replace(cp_name.begin(), cp_name.end(), '.', '_');
  *os << "_ms" << q.minsplit << "_cp" << cp_name;
}

class TreePropertyTest : public ::testing::TestWithParam<TreeParam> {};

TEST_P(TreePropertyTest, TrainAccuracyAtLeastMajorityRate) {
  // Property: a fitted tree never does worse on its own training data than
  // predicting the majority class.
  const TreeParam param = GetParam();
  Dataset data = MakeXorDataset(300, 12);
  DataView view(&data);
  DecisionTree tree({.criterion = param.criterion,
                     .minsplit = param.minsplit,
                     .cp = param.cp});
  ASSERT_TRUE(tree.Fit(view).ok());
  size_t positives = 0;
  for (size_t i = 0; i < view.num_rows(); ++i) positives += view.label(i);
  const double pos_rate = static_cast<double>(positives) /
                          static_cast<double>(view.num_rows());
  const double majority = std::max(pos_rate, 1.0 - pos_rate);
  EXPECT_GE(Accuracy(tree, view) + 1e-12, majority);
}

TEST_P(TreePropertyTest, LeavesPartitionTrainingRows) {
  const TreeParam param = GetParam();
  Dataset data = MakeXorDataset(300, 13);
  DataView view(&data);
  DecisionTree tree({.criterion = param.criterion,
                     .minsplit = param.minsplit,
                     .cp = param.cp});
  ASSERT_TRUE(tree.Fit(view).ok());
  // Sum of leaf counts == n; each internal node's count == children's sum.
  size_t leaf_total = 0;
  for (const auto& node : tree.nodes()) {
    if (node.feature < 0) {
      leaf_total += node.count;
    } else {
      const auto& l = tree.nodes()[static_cast<size_t>(node.left)];
      const auto& r = tree.nodes()[static_cast<size_t>(node.right)];
      EXPECT_EQ(node.count, l.count + r.count);
      EXPECT_EQ(node.pos_count, l.pos_count + r.pos_count);
    }
  }
  EXPECT_EQ(leaf_total, view.num_rows());
}

INSTANTIATE_TEST_SUITE_P(
    GridSweep, TreePropertyTest,
    ::testing::Values(
        TreeParam{SplitCriterion::kGini, 1, 0.0},
        TreeParam{SplitCriterion::kGini, 10, 0.001},
        TreeParam{SplitCriterion::kGini, 100, 0.01},
        TreeParam{SplitCriterion::kInfoGain, 1, 0.0},
        TreeParam{SplitCriterion::kInfoGain, 10, 0.01},
        TreeParam{SplitCriterion::kInfoGain, 100, 0.1},
        TreeParam{SplitCriterion::kGainRatio, 1, 0.0},
        TreeParam{SplitCriterion::kGainRatio, 10, 0.001},
        TreeParam{SplitCriterion::kGainRatio, 100, 0.0}));

}  // namespace
}  // namespace ml
}  // namespace hamlet
