// Tests for hamlet/ml/nb: Naive Bayes and backward feature selection.

#include <gtest/gtest.h>

#include <cmath>

#include "hamlet/common/rng.h"
#include "hamlet/data/code_matrix.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/view.h"
#include "hamlet/ml/metrics.h"
#include "hamlet/ml/nb/backward_selection.h"
#include "hamlet/ml/nb/naive_bayes.h"

namespace hamlet {
namespace ml {
namespace {

Dataset MakeSignalNoise(size_t n, uint64_t seed) {
  // f0 determines the label; f1 is noise.
  Dataset d({{"sig", 2, FeatureRole::kHome, -1},
             {"noise", 4, FeatureRole::kHome, -1}});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = static_cast<uint32_t>(rng.UniformInt(2));
    d.AppendRowUnchecked({s, static_cast<uint32_t>(rng.UniformInt(4))},
                         static_cast<uint8_t>(s));
  }
  return d;
}

TEST(NaiveBayesTest, LearnsSimpleSignal) {
  Dataset data = MakeSignalNoise(500, 1);
  DataView view(&data);
  NaiveBayes nb;
  ASSERT_TRUE(nb.Fit(view).ok());
  EXPECT_DOUBLE_EQ(Accuracy(nb, view), 1.0);
}

TEST(NaiveBayesTest, PriorDominatesWithUninformativeFeatures) {
  // 80% positive labels, feature independent of the label.
  Dataset d({{"f", 2, FeatureRole::kHome, -1}});
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    d.AppendRowUnchecked({static_cast<uint32_t>(rng.UniformInt(2))},
                         rng.Bernoulli(0.8) ? 1 : 0);
  }
  NaiveBayes nb;
  ASSERT_TRUE(nb.Fit(DataView(&d)).ok());
  // Predicts the majority class everywhere.
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(nb.Predict(DataView(&d), i), 1);
  }
}

TEST(NaiveBayesTest, LaplaceSmoothingHandlesUnseenCode) {
  // Domain has a code never seen in training; log-odds must stay finite.
  Dataset train({{"f", 3, FeatureRole::kHome, -1}});
  for (int i = 0; i < 100; ++i) {
    train.AppendRowUnchecked({static_cast<uint32_t>(i % 2)},
                             static_cast<uint8_t>(i % 2));
  }
  NaiveBayes nb;
  ASSERT_TRUE(nb.Fit(DataView(&train)).ok());
  const uint32_t unseen[] = {2};  // in the domain, never trained on
  const double odds = nb.LogOddsOfCodes(unseen);
  EXPECT_TRUE(std::isfinite(odds));
}

TEST(NaiveBayesTest, LogOddsSignMatchesPrediction) {
  Dataset data = MakeSignalNoise(200, 3);
  DataView view(&data);
  NaiveBayes nb;
  ASSERT_TRUE(nb.Fit(view).ok());
  const CodeMatrix m(view);
  for (size_t i = 0; i < view.num_rows(); ++i) {
    EXPECT_EQ(nb.Predict(view, i), nb.LogOddsOfCodes(m.row(i)) >= 0 ? 1 : 0);
  }
}

TEST(NaiveBayesTest, EmptyTrainingFails) {
  Dataset data = MakeSignalNoise(10, 4);
  DataView empty(&data, {}, {0, 1});
  NaiveBayes nb;
  EXPECT_FALSE(nb.Fit(empty).ok());
}

TEST(NaiveBayesTest, SingleClassTraining) {
  Dataset d({{"f", 2, FeatureRole::kHome, -1}});
  for (int i = 0; i < 10; ++i) d.AppendRowUnchecked({0}, 1);
  NaiveBayes nb;
  ASSERT_TRUE(nb.Fit(DataView(&d)).ok());
  EXPECT_EQ(nb.Predict(DataView(&d), 0), 1);
}

// ---------------------------------------------------- backward selection --

TEST(BackwardSelectionTest, DropsAdversarialFeature) {
  // f0 = signal; f1 = "trap": equals the label on train rows but is
  // anti-correlated on validation — backward selection should drop it.
  Dataset data({{"sig", 2, FeatureRole::kHome, -1},
                {"trap", 2, FeatureRole::kHome, -1}});
  Rng rng(5);
  std::vector<uint32_t> train_rows, val_rows;
  for (int i = 0; i < 400; ++i) {
    const uint32_t s = static_cast<uint32_t>(rng.UniformInt(2));
    const bool is_val = i >= 300;
    // Trap agrees with y on train, disagrees on val.
    const uint32_t trap = is_val ? (1 - s) : s;
    data.AppendRowUnchecked({s, trap}, static_cast<uint8_t>(s));
    (is_val ? val_rows : train_rows).push_back(static_cast<uint32_t>(i));
  }
  DataView train(&data, train_rows, {0, 1});
  DataView val(&data, val_rows, {0, 1});
  BackwardSelectionClassifier model(
      [] { return std::make_unique<NaiveBayes>(); }, val);
  ASSERT_TRUE(model.Fit(train).ok());
  // The trap feature must be gone; accuracy on val should be perfect.
  ASSERT_EQ(model.selected_features().size(), 1u);
  EXPECT_EQ(model.selected_features()[0], 0u);
  EXPECT_DOUBLE_EQ(Accuracy(model, val), 1.0);
}

TEST(BackwardSelectionTest, KeepsAllUsefulFeatures) {
  // Two independent half-signals: dropping either hurts, so both stay.
  Dataset data({{"a", 2, FeatureRole::kHome, -1},
                {"b", 2, FeatureRole::kHome, -1}});
  Rng rng(6);
  std::vector<uint32_t> train_rows, val_rows;
  for (int i = 0; i < 600; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.UniformInt(2));
    const uint32_t b = static_cast<uint32_t>(rng.UniformInt(2));
    // y = a OR b (NB-representable, both features informative).
    data.AppendRowUnchecked({a, b}, static_cast<uint8_t>(a | b));
    (i >= 450 ? val_rows : train_rows).push_back(static_cast<uint32_t>(i));
  }
  DataView train(&data, train_rows, {0, 1});
  DataView val(&data, val_rows, {0, 1});
  BackwardSelectionClassifier model(
      [] { return std::make_unique<NaiveBayes>(); }, val);
  ASSERT_TRUE(model.Fit(train).ok());
  EXPECT_EQ(model.selected_features().size(), 2u);
}

TEST(BackwardSelectionTest, AlwaysKeepsAtLeastOneFeature) {
  // Pure noise everywhere: the selector may drop features but never all.
  Dataset data({{"n1", 2, FeatureRole::kHome, -1},
                {"n2", 2, FeatureRole::kHome, -1}});
  Rng rng(7);
  std::vector<uint32_t> train_rows, val_rows;
  for (int i = 0; i < 200; ++i) {
    data.AppendRowUnchecked({static_cast<uint32_t>(rng.UniformInt(2)),
                             static_cast<uint32_t>(rng.UniformInt(2))},
                            rng.Bernoulli(0.5) ? 1 : 0);
    (i >= 150 ? val_rows : train_rows).push_back(static_cast<uint32_t>(i));
  }
  DataView train(&data, train_rows, {0, 1});
  DataView val(&data, val_rows, {0, 1});
  BackwardSelectionClassifier model(
      [] { return std::make_unique<NaiveBayes>(); }, val);
  ASSERT_TRUE(model.Fit(train).ok());
  EXPECT_GE(model.selected_features().size(), 1u);
}

}  // namespace
}  // namespace ml
}  // namespace hamlet
