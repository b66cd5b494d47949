// Tests for hamlet/ml/linear: L1 logistic regression.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "hamlet/common/rng.h"
#include "hamlet/data/code_matrix.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/one_hot.h"
#include "hamlet/data/split.h"
#include "hamlet/data/view.h"
#include "hamlet/ml/linear/logistic_regression.h"
#include "hamlet/ml/metrics.h"

namespace hamlet {
namespace ml {
namespace {

Dataset MakeSignalNoise(size_t n, uint64_t seed, size_t noise_features) {
  std::vector<FeatureSpec> specs = {{"sig", 2, FeatureRole::kHome, -1}};
  for (size_t j = 0; j < noise_features; ++j) {
    specs.push_back(
        {"n" + std::to_string(j), 3, FeatureRole::kHome, -1});
  }
  Dataset d(specs);
  Rng rng(seed);
  std::vector<uint32_t> row(1 + noise_features);
  for (size_t i = 0; i < n; ++i) {
    row[0] = static_cast<uint32_t>(rng.UniformInt(2));
    for (size_t j = 0; j < noise_features; ++j) {
      row[1 + j] = static_cast<uint32_t>(rng.UniformInt(3));
    }
    d.AppendRowUnchecked(row, static_cast<uint8_t>(row[0]));
  }
  return d;
}

LogisticRegressionConfig SmallConfig() {
  LogisticRegressionConfig cfg;
  cfg.nlambda = 10;
  cfg.maxit = 300;
  return cfg;
}

TEST(LogRegTest, LearnsSeparableData) {
  Dataset data = MakeSignalNoise(400, 1, 2);
  DataView view(&data);
  LogisticRegressionL1 lr(SmallConfig());
  ASSERT_TRUE(lr.Fit(view).ok());
  EXPECT_GE(Accuracy(lr, view), 0.99);
}

TEST(LogRegTest, ProbabilityAndPredictionAgree) {
  Dataset data = MakeSignalNoise(200, 2, 1);
  DataView view(&data);
  LogisticRegressionL1 lr(SmallConfig());
  ASSERT_TRUE(lr.Fit(view).ok());
  const CodeMatrix m(view);
  for (size_t i = 0; i < view.num_rows(); ++i) {
    const double p = lr.ProbabilityOfCodes(m.row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_EQ(lr.Predict(view, i), p >= 0.5 ? 1 : 0);
  }
}

TEST(LogRegTest, ValidationPicksLambda) {
  Dataset data = MakeSignalNoise(600, 3, 3);
  TrainValTest split = SplitRows(600, 0.6, 0.4, 4);
  DataView train(&data, split.train,
                 {0, 1, 2, 3});
  DataView val(&data, split.val, {0, 1, 2, 3});
  LogisticRegressionConfig cfg = SmallConfig();
  cfg.has_validation = true;
  cfg.validation = val;
  LogisticRegressionL1 lr(cfg);
  ASSERT_TRUE(lr.Fit(train).ok());
  EXPECT_GT(lr.selected_lambda(), 0.0);
  EXPECT_GE(Accuracy(lr, val), 0.95);
}

TEST(LogRegTest, L1SparsifiesNoiseWeights) {
  // With many noise features, the selected model should have far fewer
  // nonzero weights than the full one-hot dimension.
  Dataset data = MakeSignalNoise(500, 5, 10);
  DataView view(&data);
  LogisticRegressionL1 lr(SmallConfig());
  ASSERT_TRUE(lr.Fit(view).ok());
  EXPECT_GE(Accuracy(lr, view), 0.95);
  EXPECT_LT(lr.NumNonzeroWeights(), OneHotMap(view).dimension());
}

TEST(LogRegTest, HighLambdaOnlyPathIsMajorityLike) {
  // A single path point at lambda_max keeps all penalised weights at zero;
  // prediction falls back to the intercept (majority class).
  Dataset d({{"f", 2, FeatureRole::kHome, -1}});
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    d.AppendRowUnchecked({static_cast<uint32_t>(rng.UniformInt(2))},
                         rng.Bernoulli(0.7) ? 1 : 0);
  }
  LogisticRegressionConfig cfg;
  cfg.nlambda = 1;  // path = {lambda_max}
  cfg.maxit = 100;
  LogisticRegressionL1 lr(cfg);
  ASSERT_TRUE(lr.Fit(DataView(&d)).ok());
  EXPECT_EQ(lr.NumNonzeroWeights(), 0u);
  EXPECT_EQ(lr.Predict(DataView(&d), 0), 1);
}

TEST(LogRegTest, EmptyTrainingFails) {
  Dataset data = MakeSignalNoise(10, 7, 1);
  DataView empty(&data, {}, {0, 1});
  LogisticRegressionL1 lr(SmallConfig());
  EXPECT_FALSE(lr.Fit(empty).ok());
}

TEST(LogRegTest, DeterministicFit) {
  Dataset data = MakeSignalNoise(300, 8, 2);
  DataView view(&data);
  LogisticRegressionL1 a(SmallConfig()), b(SmallConfig());
  ASSERT_TRUE(a.Fit(view).ok());
  ASSERT_TRUE(b.Fit(view).ok());
  const CodeMatrix m(view);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.ProbabilityOfCodes(m.row(i)),
                     b.ProbabilityOfCodes(m.row(i)));
  }
}

TEST(LogRegTest, OutOfDomainCodeClampsWithinItsOwnFeature) {
  // Training domains {3, 4}: feature 0 owns units 0-2, feature 1 units 3-6.
  // Both features carry signal, so every unit holds a distinct weight.
  Dataset train({{"a", 3, FeatureRole::kHome, -1},
                 {"b", 4, FeatureRole::kHome, -1}});
  Rng rng(31);
  for (int i = 0; i < 400; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.UniformInt(3));
    const uint32_t b = static_cast<uint32_t>(rng.UniformInt(4));
    const bool label = a + b >= 3 ? !rng.Bernoulli(0.1) : rng.Bernoulli(0.1);
    train.AppendRowUnchecked({a, b}, static_cast<uint8_t>(label));
  }
  LogisticRegressionL1 lr(SmallConfig());
  ASSERT_TRUE(lr.Fit(DataView(&train)).ok());

  // Feature 0's codes 4 and 9 lie past its domain. Unclamped, 4 would
  // read unit 4 (feature 1's code 1) and 9 would run off the table; both
  // must score exactly like feature 0's last in-domain code, 2.
  Dataset query({{"a", 10, FeatureRole::kHome, -1},
                 {"b", 4, FeatureRole::kHome, -1}});
  query.AppendRowUnchecked({2, 0}, 0);
  query.AppendRowUnchecked({4, 0}, 0);
  query.AppendRowUnchecked({9, 0}, 0);
  const DataView view(&query);
  const CodeMatrix m(view);
  const double clamped = lr.ProbabilityOfCodes(m.row(0));
  EXPECT_EQ(lr.ProbabilityOfCodes(m.row(1)), clamped);
  EXPECT_EQ(lr.ProbabilityOfCodes(m.row(2)), clamped);
  const std::vector<uint8_t> all = lr.PredictAll(view);
  EXPECT_EQ(all[1], all[0]);
  EXPECT_EQ(all[2], all[0]);
}

// Path-length sweep: more path points never hurt badly and always produce
// a finite, usable model.
class LogRegPathTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LogRegPathTest, StableForPathLength) {
  Dataset data = MakeSignalNoise(300, 9, 3);
  DataView view(&data);
  LogisticRegressionConfig cfg = SmallConfig();
  cfg.nlambda = GetParam();
  LogisticRegressionL1 lr(cfg);
  ASSERT_TRUE(lr.Fit(view).ok());
  const double acc = Accuracy(lr, view);
  EXPECT_TRUE(std::isfinite(acc));
  EXPECT_GE(acc, 0.45);
}

INSTANTIATE_TEST_SUITE_P(PathLengths, LogRegPathTest,
                         ::testing::Values(1, 2, 5, 10, 25));

}  // namespace
}  // namespace ml
}  // namespace hamlet
