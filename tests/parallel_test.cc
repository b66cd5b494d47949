// Tests for hamlet/common/parallel: index coverage, error propagation,
// HAMLET_THREADS sizing, and the determinism contract of the parallelised
// GridSearch / MonteCarloBiasVariance layers (bit-identical output at any
// thread count).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hamlet/common/parallel.h"
#include "hamlet/common/rng.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/split.h"
#include "hamlet/data/view.h"
#include "hamlet/io/serialize.h"
#include "hamlet/ml/bias_variance.h"
#include "hamlet/ml/grid_search.h"
#include "hamlet/ml/metrics.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "parity_util.h"

namespace hamlet {
namespace parallel {
namespace {

// The HAMLET_THREADS-pinning RAII helper is shared with the CodeMatrix
// parity harness.
using hamlet::test::ScopedThreads;

// ------------------------------------------------------------ primitives --

TEST(ParallelForTest, CoversAllIndicesExactlyOnce) {
  constexpr size_t kN = 1000;
  for (size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::unique_ptr<std::atomic<int>[]> hits(new std::atomic<int>[kN]);
    for (size_t i = 0; i < kN; ++i) hits[i].store(0);
    pool.For(kN, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads
                                   << " threads";
    }
  }
}

TEST(ParallelForTest, ZeroIterationsIsANoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.For(0, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE(pool.ForStatus(0, [&](size_t) { return Status::OK(); }).ok());
}

TEST(ParallelForTest, ReusableAcrossJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<size_t> sum{0};
    pool.For(100, [&](size_t i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), 4950u);
  }
}

TEST(ParallelForTest, NestedForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_calls{0};
  pool.For(8, [&](size_t) {
    pool.For(16, [&](size_t) { inner_calls.fetch_add(1); });
  });
  EXPECT_EQ(inner_calls.load(), 8 * 16);
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.For(100,
                        [&](size_t i) {
                          if (i == 5) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> calls{0};
  pool.For(10, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ParallelForStatusTest, PropagatesLowestIndexError) {
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    Status st = pool.ForStatus(200, [&](size_t i) -> Status {
      if (i == 50 || i == 3 || i == 199) {
        return Status::InvalidArgument("failed at " + std::to_string(i));
      }
      return Status::OK();
    });
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(), "failed at 3") << threads << " threads";
  }
}

TEST(ParallelForStatusTest, AllOkReturnsOk) {
  ThreadPool pool(4);
  EXPECT_TRUE(
      pool.ForStatus(64, [&](size_t) { return Status::OK(); }).ok());
}

TEST(ParallelMapTest, ResultsLandInIndexOrder) {
  ThreadPool pool(4);
  const std::vector<size_t> out =
      pool.Map<size_t>(500, [](size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 500u);
  for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i * i);
}

// --------------------------------------------------------- env / sizing --

TEST(ConfiguredThreadsTest, ParsesHamletThreads) {
  {
    ScopedThreads env("3");
    EXPECT_EQ(ConfiguredThreads(), 3u);
    EXPECT_EQ(DefaultPool().num_threads(), 3u);
  }
  {
    ScopedThreads env("1");
    EXPECT_EQ(ConfiguredThreads(), 1u);
  }
  {
    ScopedThreads env(nullptr);
    EXPECT_EQ(ConfiguredThreads(), HardwareThreads());
  }
}

TEST(ConfiguredThreadsTest, InvalidValuesFallBackToHardware) {
  // Digits only: strtol used to read "+1000" and " 1000" as 1000.
  for (const char* bad :
       {"abc", "0", "-2", "4x", "9999", "", "+1000", " 1000", "1025"}) {
    ScopedThreads env(bad);
    EXPECT_EQ(ConfiguredThreads(), HardwareThreads())
        << "value \"" << bad << "\"";
  }
}

// ---------------------------------------------- determinism across pools --

/// Builds a noisy two-feature dataset where feature 0 carries the label
/// signal with 15% flip noise — enough structure that different tree
/// configurations really score differently on validation.
Dataset MakeNoisySignal(size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset d({{"sig", 4, FeatureRole::kHome, -1},
             {"junk", 8, FeatureRole::kHome, -1}});
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = static_cast<uint32_t>(rng.UniformInt(4));
    uint8_t y = s >= 2 ? 1 : 0;
    if (rng.Bernoulli(0.15)) y = 1 - y;
    d.AppendRowUnchecked({s, static_cast<uint32_t>(rng.UniformInt(8))}, y);
  }
  return d;
}

ml::GridSearchResult RunTreeGridSearch(const Dataset& d) {
  TrainValTest split = SplitRows(d.num_rows(), 0.5, 0.25, 17);
  SplitViews views = MakeSplitViews(d, split, {0, 1});
  ml::ParamGrid grid;
  grid.Add("minsplit", {1, 5, 20, 80}).Add("cp", {0.0, 0.001, 0.01, 0.1});
  Result<ml::GridSearchResult> r = ml::GridSearch(
      [](const ml::ParamMap& p) {
        ml::DecisionTreeConfig cfg;
        cfg.minsplit = static_cast<size_t>(p.at("minsplit"));
        cfg.cp = p.at("cp");
        return std::make_unique<ml::DecisionTree>(cfg);
      },
      grid, views.train, views.val);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

TEST(DeterminismTest, GridSearchIsBitIdenticalAcrossThreadCounts) {
  const Dataset d = MakeNoisySignal(600, 42);
  ml::ParamMap params1, params4;
  double acc1 = 0.0, acc4 = 0.0;
  size_t tried1 = 0, tried4 = 0;
  std::vector<uint8_t> preds1, preds4;
  {
    ScopedThreads env("1");
    ml::GridSearchResult r = RunTreeGridSearch(d);
    params1 = r.best_params;
    acc1 = r.best_val_accuracy;
    tried1 = r.configurations_tried;
    preds1 = r.best_model->PredictAll(DataView(&d));
  }
  {
    ScopedThreads env("4");
    ml::GridSearchResult r = RunTreeGridSearch(d);
    params4 = r.best_params;
    acc4 = r.best_val_accuracy;
    tried4 = r.configurations_tried;
    preds4 = r.best_model->PredictAll(DataView(&d));
  }
  EXPECT_EQ(params1, params4);
  EXPECT_EQ(acc1, acc4);  // exact: same fits, same tie-break index
  EXPECT_EQ(tried1, tried4);
  EXPECT_EQ(preds1, preds4);
}

ml::BiasVariance RunMonteCarlo() {
  // Per-run predictions derive only from the run index (per-run Rng), as
  // the MonteCarloBiasVariance contract requires.
  const size_t kPoints = 97;
  std::vector<uint8_t> labels(kPoints);
  Rng label_rng(7);
  for (auto& y : labels) y = static_cast<uint8_t>(label_rng.UniformInt(2));
  Result<ml::BiasVariance> r = ml::MonteCarloBiasVariance(
      24,
      [&](size_t run) {
        Rng rng(1000 + 31 * run);
        std::vector<uint8_t> preds(kPoints);
        for (size_t i = 0; i < kPoints; ++i) {
          preds[i] = rng.Bernoulli(0.3) ? 1 - labels[i] : labels[i];
        }
        return preds;
      },
      labels, labels);
  EXPECT_TRUE(r.ok());
  return r.value_or({});
}

TEST(DeterminismTest, MonteCarloIsBitIdenticalAcrossThreadCounts) {
  ml::BiasVariance serial, parallel4;
  {
    ScopedThreads env("1");
    serial = RunMonteCarlo();
  }
  {
    ScopedThreads env("4");
    parallel4 = RunMonteCarlo();
  }
  EXPECT_EQ(serial.mean_error, parallel4.mean_error);
  EXPECT_EQ(serial.bias, parallel4.bias);
  EXPECT_EQ(serial.variance, parallel4.variance);
  EXPECT_EQ(serial.variance_unbiased, parallel4.variance_unbiased);
  EXPECT_EQ(serial.variance_biased, parallel4.variance_biased);
  EXPECT_EQ(serial.net_variance, parallel4.net_variance);
  EXPECT_EQ(serial.num_runs, parallel4.num_runs);
}

/// Deterministic stand-in classifier: label-parity of a row feature.
class ParityModel : public ml::Classifier {
 public:
  Status Fit(const DataView&) override { return Status::OK(); }
  uint8_t Predict(const DataView& view, size_t i) const override {
    return static_cast<uint8_t>(view.feature(i, 0) % 2);
  }
  std::string name() const override { return "parity"; }
};

TEST(DeterminismTest, AccuracyIsIdenticalAcrossThreadCounts) {
  // Large enough to cross PredictAll's chunked-scoring threshold.
  const Dataset d = MakeNoisySignal(3000, 99);
  const DataView view(&d);
  ParityModel model;
  double acc1 = 0.0, acc4 = 0.0;
  std::vector<uint8_t> preds1, preds4;
  {
    ScopedThreads env("1");
    acc1 = ml::Accuracy(model, view);
    preds1 = model.PredictAll(view);
  }
  {
    ScopedThreads env("4");
    acc4 = ml::Accuracy(model, view);
    preds4 = model.PredictAll(view);
  }
  EXPECT_EQ(acc1, acc4);
  EXPECT_EQ(preds1, preds4);
}

// ------------------------------------------------- one fit per grid point --

std::string SavedBytes(const ml::Classifier& model) {
  std::ostringstream out;
  EXPECT_TRUE(io::SaveModel(model, out).ok());
  return out.str();
}

/// GridSearch fits every point exactly once and returns the winning fit
/// itself: the factory runs points.size() times, the winner is the first
/// point (in enumeration order) with the best validation accuracy, and
/// the returned model saves to the same bytes as a fresh fit there.
TEST(GridSearchOnceTest, OneFitPerPointAndTheWinnerIsThatFit) {
  const Dataset d = MakeNoisySignal(600, 42);
  const TrainValTest split = SplitRows(d.num_rows(), 0.5, 0.25, 17);
  const SplitViews views = MakeSplitViews(d, split, {0, 1});
  ml::ParamGrid grid;
  grid.Add("minsplit", {1, 5, 20, 80}).Add("cp", {0.0, 0.001, 0.01, 0.1});
  const std::vector<ml::ParamMap> points = grid.Enumerate();
  auto make_tree = [](const ml::ParamMap& p) {
    ml::DecisionTreeConfig cfg;
    cfg.minsplit = static_cast<size_t>(p.at("minsplit"));
    cfg.cp = p.at("cp");
    return std::make_unique<ml::DecisionTree>(cfg);
  };

  // Serial oracle: the first maximum in enumeration order.
  size_t expected = 0;
  double expected_acc = -1.0;
  size_t at_max = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    auto tree = make_tree(points[i]);
    ASSERT_TRUE(tree->Fit(views.train).ok());
    const double acc = ml::Accuracy(*tree, views.val);
    if (acc > expected_acc) {
      expected_acc = acc;
      expected = i;
      at_max = 0;
    }
    at_max += acc == expected_acc;
  }
  ASSERT_GE(at_max, 2u) << "the grid must tie at its best accuracy";

  for (const char* threads : {"1", "4"}) {
    ScopedThreads env(threads);
    std::atomic<size_t> calls{0};
    Result<ml::GridSearchResult> r = ml::GridSearch(
        [&](const ml::ParamMap& p) -> std::unique_ptr<ml::Classifier> {
          calls.fetch_add(1);
          return make_tree(p);
        },
        grid, views.train, views.val);
    ASSERT_TRUE(r.ok()) << threads;
    EXPECT_EQ(calls.load(), points.size()) << threads;
    EXPECT_EQ(r.value().configurations_tried, points.size());
    EXPECT_EQ(r.value().best_params, points[expected]) << threads;
    EXPECT_EQ(r.value().best_val_accuracy, expected_acc) << threads;
    auto fresh = make_tree(r.value().best_params);
    ASSERT_TRUE(fresh->Fit(views.train).ok());
    EXPECT_EQ(SavedBytes(*r.value().best_model), SavedBytes(*fresh))
        << threads;
  }
}

/// A model whose fit takes longer for lower grid indices, so concurrent
/// fits finish in reverse order; every instance predicts the same and
/// live instances are counted.
class ReverseFinishModel : public ml::Classifier {
 public:
  static std::atomic<int> live;
  static std::atomic<int> peak;

  explicit ReverseFinishModel(double index) : index_(index) {
    const int now = live.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
  }
  ~ReverseFinishModel() override { live.fetch_sub(1); }
  Status Fit(const DataView&) override {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(2 * (8 - static_cast<int>(index_))));
    return Status::OK();
  }
  uint8_t Predict(const DataView&, size_t) const override { return 1; }
  std::string name() const override { return "reverse-finish"; }
  double index() const { return index_; }

 private:
  double index_;
};
std::atomic<int> ReverseFinishModel::live{0};
std::atomic<int> ReverseFinishModel::peak{0};

/// Ties go to the lowest index even when it finishes last, and the
/// running best keeps at most one model per pool thread plus the best
/// alive; the losers are all freed by the time the search returns.
TEST(GridSearchOnceTest, TiesGoToLowestIndexAndLosersAreFreed) {
  const Dataset d = MakeNoisySignal(40, 3);
  const DataView train(&d);
  ml::ParamGrid grid;
  grid.Add("index", {0, 1, 2, 3, 4, 5, 6, 7});
  for (const char* threads : {"1", "4"}) {
    ScopedThreads env(threads);
    ReverseFinishModel::peak.store(0);
    Result<ml::GridSearchResult> r = ml::GridSearch(
        [](const ml::ParamMap& p) {
          return std::make_unique<ReverseFinishModel>(p.at("index"));
        },
        grid, train, train);
    ASSERT_TRUE(r.ok()) << threads;
    EXPECT_EQ(r.value().best_params.at("index"), 0.0) << threads;
    const auto& best =
        static_cast<const ReverseFinishModel&>(*r.value().best_model);
    EXPECT_EQ(best.index(), 0.0) << threads;
    EXPECT_EQ(ReverseFinishModel::live.load(), 1) << threads;
    EXPECT_LE(ReverseFinishModel::peak.load(),
              static_cast<int>(ConfiguredThreads()) + 1)
        << threads;
  }
  EXPECT_EQ(ReverseFinishModel::live.load(), 0);
}

}  // namespace
}  // namespace parallel
}  // namespace hamlet
