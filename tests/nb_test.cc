// Tests for hamlet/ml/nb: Naive Bayes and backward feature selection.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

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

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Eight features over domains of 2..5 codes: four carry label signal of
// different strengths, two are noise, and the last two copy a signal and
// a noise column, so dropping either copy scores the same and the
// selector's tie rule decides. Labels are Bernoulli draws from a logistic
// model, so no subset separates them perfectly.
Dataset MakeSelectionDataset(size_t n, uint64_t seed) {
  Dataset d({{"s0", 3, FeatureRole::kHome, -1},
             {"s1", 2, FeatureRole::kHome, -1},
             {"n0", 5, FeatureRole::kHome, -1},
             {"s2", 4, FeatureRole::kHome, -1},
             {"n1", 3, FeatureRole::kHome, -1},
             {"s3", 2, FeatureRole::kHome, -1},
             {"s0_copy", 3, FeatureRole::kHome, -1},
             {"n0_copy", 5, FeatureRole::kHome, -1}});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s0 = static_cast<uint32_t>(rng.UniformInt(3));
    const uint32_t s1 = static_cast<uint32_t>(rng.UniformInt(2));
    const uint32_t n0 = static_cast<uint32_t>(rng.UniformInt(5));
    const uint32_t s2 = static_cast<uint32_t>(rng.UniformInt(4));
    const uint32_t n1 = static_cast<uint32_t>(rng.UniformInt(3));
    const uint32_t s3 = static_cast<uint32_t>(rng.UniformInt(2));
    const double z = 1.2 * (static_cast<double>(s0) - 1.0) +
                     0.8 * (static_cast<double>(s1) - 0.5) +
                     0.5 * (static_cast<double>(s2) - 1.5) +
                     0.3 * (static_cast<double>(s3) - 0.5);
    const double p = 1.0 / (1.0 + std::exp(-z));
    d.AppendRowUnchecked({s0, s1, n0, s2, n1, s3, s0, n0},
                         rng.Bernoulli(p) ? 1 : 0);
  }
  return d;
}

TEST(NaiveBayesTest, LogOddsIsPriorPlusFeatureTerms) {
  const Dataset data = MakeSelectionDataset(300, 11);
  const DataView view(&data);
  NaiveBayes nb;
  ASSERT_TRUE(nb.Fit(view).ok());
  const CodeMatrix m(view);
  for (size_t i = 0; i < m.num_rows(); ++i) {
    double expected = nb.LogPriorOdds();
    for (size_t j = 0; j < m.num_features(); ++j) {
      expected += nb.FeatureLogOdds(j, m.row(i)[j]);
    }
    ASSERT_EQ(Bits(nb.LogOddsOfCodes(m.row(i))), Bits(expected)) << i;
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
  BackwardSelectionClassifier model(val);
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
  BackwardSelectionClassifier model(val);
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
  BackwardSelectionClassifier model(val);
  ASSERT_TRUE(model.Fit(train).ok());
  EXPECT_GE(model.selected_features().size(), 1u);
}

TEST(BackwardSelectionTest, ValidationViewOfOtherWidthIsInvalidArgument) {
  const Dataset data = MakeSignalNoise(100, 8);
  const DataView train(&data);
  for (const std::vector<uint32_t>& val_features :
       {std::vector<uint32_t>{0}, std::vector<uint32_t>{0, 1, 0}}) {
    BackwardSelectionClassifier model(DataView(&data).WithFeatures(val_features));
    const Status st = model.Fit(train);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.message();
  }
}

// The refit-per-candidate algorithm the classifier is checked against: a
// fresh Naive Bayes fit on every candidate subset, scored by ml::Accuracy
// on the validation view projected onto that subset. `tied_rounds` counts
// the rounds in which more than one candidate reached the round's best
// accuracy, so the first-wins rule decided the drop.
struct ReferenceSelection {
  std::vector<uint32_t> selected;
  std::unique_ptr<NaiveBayes> model;  // fitted on `selected` alone
  size_t tied_rounds = 0;
};

std::vector<uint32_t> ProjectFeatures(const DataView& view,
                                      const std::vector<uint32_t>& subset) {
  std::vector<uint32_t> cols;
  for (uint32_t j : subset) cols.push_back(view.feature_id(j));
  return cols;
}

ReferenceSelection RefitBackwardSelection(const DataView& train,
                                          const DataView& val) {
  auto evaluate = [&](const std::vector<uint32_t>& subset,
                      std::unique_ptr<NaiveBayes>& model) {
    model = std::make_unique<NaiveBayes>();
    EXPECT_TRUE(
        model->Fit(train.WithFeatures(ProjectFeatures(train, subset))).ok());
    return Accuracy(*model, val.WithFeatures(ProjectFeatures(val, subset)));
  };
  ReferenceSelection ref;
  std::vector<uint32_t> current(train.num_features());
  std::iota(current.begin(), current.end(), 0u);
  double best_acc = evaluate(current, ref.model);
  bool improved = true;
  while (improved && current.size() > 1) {
    improved = false;
    size_t drop_pos = current.size();
    std::unique_ptr<NaiveBayes> round_model;
    double round_acc = best_acc;
    size_t at_round_acc = 0;
    for (size_t k = 0; k < current.size(); ++k) {
      std::vector<uint32_t> candidate = current;
      candidate.erase(candidate.begin() + static_cast<long>(k));
      std::unique_ptr<NaiveBayes> model;
      const double acc = evaluate(candidate, model);
      if (acc > round_acc) {
        round_acc = acc;
        round_model = std::move(model);
        drop_pos = k;
        at_round_acc = 1;
      } else if (drop_pos < current.size() && acc == round_acc) {
        ++at_round_acc;
      }
    }
    if (drop_pos < current.size()) {
      current.erase(current.begin() + static_cast<long>(drop_pos));
      ref.model = std::move(round_model);
      best_acc = round_acc;
      improved = true;
      ref.tied_rounds += at_round_acc > 1;
    }
  }
  ref.selected = std::move(current);
  return ref;
}

TEST(BackwardSelectionTest, MatchesRefitPerCandidateBitForBit) {
  size_t tied_rounds = 0;
  size_t dropped = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    const Dataset data = MakeSelectionDataset(120 + 40 * seed, seed);
    // Rows split 3:1:1 into train, validation and test; every view
    // selects the columns in the same permuted order, so view-feature
    // indices differ from column ids.
    std::vector<uint32_t> rows[3];
    for (uint32_t i = 0; i < data.num_rows(); ++i) {
      rows[i % 5 < 3 ? 0 : i % 5 - 2].push_back(i);
    }
    const std::vector<uint32_t> features = {7, 0, 3, 5, 1, 6, 2, 4};
    const DataView train(&data, rows[0], features);
    const DataView val(&data, rows[1], features);
    const DataView test(&data, rows[2], features);

    BackwardSelectionClassifier model(val);
    ASSERT_TRUE(model.Fit(train).ok());
    const ReferenceSelection ref = RefitBackwardSelection(train, val);
    ASSERT_EQ(model.selected_features(), ref.selected);
    tied_rounds += ref.tied_rounds;
    dropped += features.size() - ref.selected.size();
    for (const DataView* view : {&train, &val, &test}) {
      EXPECT_EQ(model.PredictAll(*view),
                ref.model->PredictAll(view->WithFeatures(
                    ProjectFeatures(*view, ref.selected))));
    }
  }
  // The datasets must make the selector drop features and break ties.
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(tied_rounds, 0u);
}

}  // namespace
}  // namespace ml
}  // namespace hamlet
