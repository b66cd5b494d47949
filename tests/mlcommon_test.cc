// Tests for hamlet/ml common infrastructure: metrics, the predict
// fan-out rule, grid search, bias-variance decomposition.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "hamlet/common/rng.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/split.h"
#include "hamlet/data/view.h"
#include "hamlet/ml/bias_variance.h"
#include "hamlet/ml/grid_search.h"
#include "hamlet/ml/metrics.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "parity_util.h"

namespace hamlet {
namespace ml {
namespace {

// --------------------------------------------------------------- metrics --

/// Constant classifier used to exercise the metric plumbing.
class ConstantModel : public Classifier {
 public:
  explicit ConstantModel(uint8_t value) : value_(value) {}
  Status Fit(const DataView&) override { return Status::OK(); }
  uint8_t Predict(const DataView&, size_t) const override { return value_; }
  std::string name() const override { return "const"; }

 private:
  uint8_t value_;
};

Dataset MakeLabeled(const std::vector<uint8_t>& labels) {
  Dataset d({{"f", 2, FeatureRole::kHome, -1}});
  for (uint8_t y : labels) d.AppendRowUnchecked({0}, y);
  return d;
}

TEST(MetricsTest, AccuracyAndErrorRate) {
  Dataset d = MakeLabeled({1, 1, 0, 0, 1});
  ConstantModel ones(1);
  EXPECT_DOUBLE_EQ(Accuracy(ones, DataView(&d)), 0.6);
  EXPECT_DOUBLE_EQ(ErrorRate(ones, DataView(&d)), 0.4);
}

TEST(MetricsTest, AccuracyCountsOnlyTheViewsRows) {
  // Rows 2..4 hold labels {0, 0, 1}: one hit out of three for all-ones.
  Dataset d = MakeLabeled({1, 1, 0, 0, 1});
  DataView tail(&d, {2, 3, 4}, {0});
  ConstantModel ones(1);
  EXPECT_EQ(Accuracy(ones, tail), 1.0 / 3.0);
  EXPECT_EQ(ErrorRate(ones, tail), 1.0 - 1.0 / 3.0);
}

TEST(MetricsTest, EmptyViewDegenerates) {
  Dataset d = MakeLabeled({1});
  DataView empty(&d, {}, {0});
  ConstantModel ones(1);
  EXPECT_DOUBLE_EQ(Accuracy(ones, empty), 0.0);
}

// -------------------------------------------------------- predict fan-out --

TEST(ForEachPredictRowTest, FansOutFromTheWorkThresholdUp) {
  EXPECT_FALSE(PredictFansOut(0, 1000));
  EXPECT_FALSE(PredictFansOut(1000, 0));
  EXPECT_FALSE(PredictFansOut(kSerialPredictWork - 1, 1));
  EXPECT_TRUE(PredictFansOut(kSerialPredictWork, 1));
  EXPECT_TRUE(PredictFansOut(1, kSerialPredictWork));
  // A learner without its own estimate keeps the old 512-row cutoff.
  EXPECT_FALSE(PredictFansOut(511, kDefaultPredictRowCost));
  EXPECT_TRUE(PredictFansOut(512, kDefaultPredictRowCost));
  // The product is never formed, so it cannot overflow.
  EXPECT_TRUE(PredictFansOut(SIZE_MAX, SIZE_MAX));
}

TEST(ForEachPredictRowTest, BelowTheThresholdEveryRowRunsOnTheCaller) {
  test::ScopedThreads threads("4");
  // A default-sized serving batch (2048 rows) through a depth-29 tree.
  const size_t rows = 2048;
  const size_t row_cost = 30;
  ASSERT_FALSE(PredictFansOut(rows, row_cost));
  std::vector<std::thread::id> ran_on(rows);
  ForEachPredictRow(rows, row_cost, [&](size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (size_t i = 0; i < rows; ++i) {
    ASSERT_EQ(ran_on[i], std::this_thread::get_id()) << "row " << i;
  }
}

TEST(ForEachPredictRowTest, AboveTheThresholdResultsAreKeyedByIndex) {
  const size_t row_cost = 64;
  const size_t rows = 4 * kSerialPredictWork / row_cost;
  ASSERT_TRUE(PredictFansOut(rows, row_cost));
  const auto score = [](size_t i) {
    return static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
  };
  const auto run = [&](const char* threads) {
    test::ScopedThreads scoped(threads);
    std::vector<uint64_t> out(rows);
    std::atomic<size_t> calls{0};
    ForEachPredictRow(rows, row_cost, [&](size_t i) {
      out[i] = score(i);
      calls.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(calls.load(), rows) << "threads=" << threads;
    return out;
  };
  const std::vector<uint64_t> serial = run("1");
  EXPECT_EQ(run("4"), serial);
  for (size_t i = 0; i < rows; ++i) ASSERT_EQ(serial[i], score(i));
}

// ----------------------------------------------------------- grid search --

TEST(ParamGridTest, EnumeratesCartesianProduct) {
  ParamGrid grid;
  grid.Add("a", {1, 2}).Add("b", {10, 20, 30});
  const auto all = grid.Enumerate();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_DOUBLE_EQ(all[0].at("a"), 1);
  EXPECT_DOUBLE_EQ(all[0].at("b"), 10);
  EXPECT_DOUBLE_EQ(all[5].at("a"), 2);
  EXPECT_DOUBLE_EQ(all[5].at("b"), 30);
}

TEST(ParamGridTest, EmptyGridYieldsOneAssignment) {
  EXPECT_EQ(ParamGrid().Enumerate().size(), 1u);
}

TEST(ParamGridTest, EnumerationOrderIsPinnedRowMajor) {
  // The full enumeration order is a contract: parallel grid search breaks
  // ties by enumeration index, so this order must never change. First
  // axis varies slowest, last axis fastest.
  ParamGrid grid;
  grid.Add("a", {1, 2}).Add("b", {10, 20, 30});
  const auto all = grid.Enumerate();
  const std::vector<std::pair<double, double>> expected = {
      {1, 10}, {1, 20}, {1, 30}, {2, 10}, {2, 20}, {2, 30}};
  ASSERT_EQ(all.size(), expected.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_DOUBLE_EQ(all[i].at("a"), expected[i].first) << "index " << i;
    EXPECT_DOUBLE_EQ(all[i].at("b"), expected[i].second) << "index " << i;
  }
}

TEST(ParamGridTest, EmptyAxisAnnihilatesTheProduct) {
  ParamGrid grid;
  grid.Add("a", {1, 2}).Add("empty", {});
  EXPECT_EQ(grid.Enumerate().size(), 0u);
}

TEST(ParamGridTest, ParamOrFallback) {
  ParamMap m{{"x", 2.0}};
  EXPECT_DOUBLE_EQ(ParamOr(m, "x", 9.0), 2.0);
  EXPECT_DOUBLE_EQ(ParamOr(m, "y", 9.0), 9.0);
}

/// Model whose validation accuracy is directly controlled by a parameter:
/// accuracy = 1 when p == target else fraction p/10. Lets the test verify
/// the search picks the argmax.
class TunableModel : public Classifier {
 public:
  explicit TunableModel(double p) : p_(p) {}
  Status Fit(const DataView&) override { return Status::OK(); }
  uint8_t Predict(const DataView& view, size_t i) const override {
    // Correct prediction iff p_ == 3 (the "good" setting); else constant 0.
    return p_ == 3.0 ? view.label(i) : 0;
  }
  std::string name() const override { return "tunable"; }

 private:
  double p_;
};

TEST(GridSearchTest, PicksBestValidationConfig) {
  Dataset d = MakeLabeled({1, 1, 1, 0});
  DataView train(&d, {0, 1}, {0});
  DataView val(&d, {2, 3}, {0});
  ParamGrid grid;
  grid.Add("p", {1, 2, 3, 4});
  Result<GridSearchResult> r = GridSearch(
      [](const ParamMap& p) {
        return std::make_unique<TunableModel>(p.at("p"));
      },
      grid, train, val);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().best_params.at("p"), 3.0);
  EXPECT_DOUBLE_EQ(r.value().best_val_accuracy, 1.0);
  EXPECT_EQ(r.value().configurations_tried, 4u);
}

TEST(GridSearchTest, EmptyTrainFails) {
  Dataset d = MakeLabeled({1});
  DataView train(&d, {}, {0});
  DataView val(&d, {0}, {0});
  Result<GridSearchResult> r = GridSearch(
      [](const ParamMap&) { return std::make_unique<ConstantModel>(1); },
      ParamGrid(), train, val);
  EXPECT_FALSE(r.ok());
}

TEST(GridSearchTest, TiesGoToFirstEnumerated) {
  Dataset d = MakeLabeled({1, 1});
  DataView train(&d, {0}, {0});
  DataView val(&d, {1}, {0});
  ParamGrid grid;
  grid.Add("p", {7, 8});
  Result<GridSearchResult> r = GridSearch(
      [](const ParamMap&) { return std::make_unique<ConstantModel>(1); },
      grid, train, val);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().best_params.at("p"), 7.0);
}

TEST(GridSearchTest, WorksWithRealTree) {
  Rng rng(1);
  Dataset d({{"sig", 2, FeatureRole::kHome, -1}});
  for (int i = 0; i < 200; ++i) {
    const uint32_t s = static_cast<uint32_t>(rng.UniformInt(2));
    d.AppendRowUnchecked({s}, static_cast<uint8_t>(s));
  }
  TrainValTest split = SplitRows(200, 0.5, 0.25, 2);
  SplitViews views = MakeSplitViews(d, split, {0});
  ParamGrid grid;
  grid.Add("minsplit", {1, 10}).Add("cp", {0.0, 0.01});
  Result<GridSearchResult> r = GridSearch(
      [](const ParamMap& p) {
        DecisionTreeConfig cfg;
        cfg.minsplit = static_cast<size_t>(p.at("minsplit"));
        cfg.cp = p.at("cp");
        return std::make_unique<DecisionTree>(cfg);
      },
      grid, views.train, views.val);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().best_val_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(Accuracy(*r.value().best_model, views.test), 1.0);
}

// --------------------------------------------------------- bias-variance --

TEST(BiasVarianceTest, ZeroVarianceWhenRunsAgree) {
  std::vector<std::vector<uint8_t>> runs = {{1, 0, 1}, {1, 0, 1}};
  std::vector<uint8_t> labels = {1, 0, 0};
  Result<BiasVariance> r = DecomposePredictions(runs, labels, labels);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().variance, 0.0);
  EXPECT_DOUBLE_EQ(r.value().net_variance, 0.0);
  // One of three points is mispredicted by the (stable) main prediction.
  EXPECT_NEAR(r.value().bias, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.value().mean_error, 1.0 / 3.0, 1e-12);
}

TEST(BiasVarianceTest, UnbiasedVarianceIsPositiveNetVariance) {
  // Point 0: main = 1 (3 of 4 runs), optimal = 1 -> unbiased, var = 0.25.
  std::vector<std::vector<uint8_t>> runs = {{1}, {1}, {1}, {0}};
  std::vector<uint8_t> labels = {1};
  Result<BiasVariance> r = DecomposePredictions(runs, labels, labels);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().bias, 0.0);
  EXPECT_DOUBLE_EQ(r.value().variance_unbiased, 0.25);
  EXPECT_DOUBLE_EQ(r.value().net_variance, 0.25);
}

TEST(BiasVarianceTest, BiasedVarianceReducesNetVariance) {
  // Main = 0 (3 of 4 runs) but optimal = 1 -> biased point; its variance
  // contributes negatively (disagreeing runs are actually right).
  std::vector<std::vector<uint8_t>> runs = {{0}, {0}, {0}, {1}};
  std::vector<uint8_t> labels = {1};
  Result<BiasVariance> r = DecomposePredictions(runs, labels, labels);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().bias, 1.0);
  EXPECT_DOUBLE_EQ(r.value().variance_biased, 0.25);
  EXPECT_DOUBLE_EQ(r.value().net_variance, -0.25);
}

TEST(BiasVarianceTest, DomingosIdentityHoldsWithoutNoise) {
  // With y* == labels (no Bayes noise), E[error] = bias + net variance.
  Rng rng(11);
  const size_t points = 50, runs = 9;
  std::vector<uint8_t> labels(points);
  for (auto& y : labels) y = static_cast<uint8_t>(rng.UniformInt(2));
  std::vector<std::vector<uint8_t>> preds(runs,
                                          std::vector<uint8_t>(points));
  for (auto& run : preds) {
    for (size_t i = 0; i < points; ++i) {
      run[i] = rng.Bernoulli(0.3) ? static_cast<uint8_t>(1 - labels[i])
                                  : labels[i];
    }
  }
  Result<BiasVariance> r = DecomposePredictions(preds, labels, labels);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().mean_error,
              r.value().bias + r.value().net_variance, 1e-9);
}

TEST(BiasVarianceTest, ValidatesInput) {
  EXPECT_FALSE(DecomposePredictions({}, {1}, {1}).ok());
  EXPECT_FALSE(DecomposePredictions({{1, 0}}, {1}, {1}).ok());
  EXPECT_FALSE(DecomposePredictions({{1}}, {1}, {1, 0}).ok());
}

TEST(BiasVarianceTest, MonteCarloDriverRunsCallback) {
  std::vector<uint8_t> labels = {1, 0};
  std::atomic<size_t> calls{0};  // runs may execute on pool workers
  Result<BiasVariance> r = MonteCarloBiasVariance(
      5,
      [&](size_t) {
        calls.fetch_add(1);
        return std::vector<uint8_t>{1, 0};
      },
      labels, labels);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(calls.load(), 5u);
  EXPECT_DOUBLE_EQ(r.value().mean_error, 0.0);
  EXPECT_EQ(r.value().num_runs, 5u);
}

}  // namespace
}  // namespace ml
}  // namespace hamlet
