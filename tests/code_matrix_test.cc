// Tests for hamlet/data/code_matrix and the learner parity harness: the
// dense CodeMatrix batch path must be bit-identical to the per-row
// DataView access path for every classifier family, at 1 and 4 threads
// (PR 2's determinism contract), including view round-trips and the
// empty-view edge cases the dense layout makes easy to get wrong.

#include "hamlet/data/code_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "hamlet/ml/tree/tree_printer.h"
#include "parity_util.h"

namespace hamlet {
namespace {

using test::ExpectPredictParity;
using test::MakeParityDataset;
using test::MakeParityViews;
using test::ParityLearner;
using test::ParityLearners;
using test::ParityViews;
using test::RoundTripDataset;
using test::ScopedThreads;

// ------------------------------------------------------------ CodeMatrix --

TEST(CodeMatrixTest, MaterialisesScrambledView) {
  const Dataset data = MakeParityDataset(40, {4, 6, 3}, 7);
  // Non-identity row and feature selections.
  DataView view(&data, {5, 0, 17, 3, 9}, {2, 0});
  const CodeMatrix m(view);
  ASSERT_EQ(m.num_rows(), 5u);
  ASSERT_EQ(m.num_features(), 2u);
  for (size_t i = 0; i < m.num_rows(); ++i) {
    EXPECT_EQ(m.label(i), view.label(i));
    const uint32_t* row = m.row(i);
    for (size_t j = 0; j < m.num_features(); ++j) {
      EXPECT_EQ(m.at(i, j), view.feature(i, j)) << i << "," << j;
      EXPECT_EQ(row[j], view.feature(i, j)) << i << "," << j;
    }
  }
  EXPECT_EQ(m.domain_size(0), 3u);  // view feature 0 = dataset column 2
  EXPECT_EQ(m.domain_size(1), 4u);
  EXPECT_EQ(m.codes().size(), 10u);
  EXPECT_EQ(m.labels().size(), 5u);
}

TEST(CodeMatrixTest, MaxRowsCapKeepsPrefix) {
  const Dataset data = MakeParityDataset(30, {5, 2}, 11);
  DataView view(&data);
  const CodeMatrix full(view);
  const CodeMatrix capped(view, 8);
  ASSERT_EQ(capped.num_rows(), 8u);
  EXPECT_EQ(capped.num_features(), full.num_features());
  for (size_t i = 0; i < capped.num_rows(); ++i) {
    EXPECT_EQ(capped.label(i), full.label(i));
    for (size_t j = 0; j < capped.num_features(); ++j) {
      EXPECT_EQ(capped.at(i, j), full.at(i, j));
    }
  }
  // Cap of 0 (and any cap >= num_rows) keeps every row.
  EXPECT_EQ(CodeMatrix(view, 0).num_rows(), 30u);
  EXPECT_EQ(CodeMatrix(view, 1000).num_rows(), 30u);
}

TEST(CodeMatrixTest, EmptyViews) {
  const Dataset data = MakeParityDataset(10, {3, 4}, 3);
  const DataView no_rows(&data, {}, {0, 1});
  const CodeMatrix m0(no_rows);
  EXPECT_EQ(m0.num_rows(), 0u);
  EXPECT_EQ(m0.num_features(), 2u);
  EXPECT_TRUE(m0.codes().empty());
  EXPECT_EQ(m0.domain_size(1), 4u);

  const DataView no_features(&data, {0, 1, 2}, {});
  const CodeMatrix m1(no_features);
  EXPECT_EQ(m1.num_rows(), 3u);
  EXPECT_EQ(m1.num_features(), 0u);
  EXPECT_TRUE(m1.codes().empty());
  EXPECT_EQ(m1.label(2), no_features.label(2));
}

TEST(CodeMatrixTest, RoundTripDatasetPreservesEverything) {
  const Dataset data = MakeParityDataset(25, {4, 3, 5}, 13);
  const ParityViews views = MakeParityViews(data, 99);
  const Dataset round = RoundTripDataset(views.train);
  ASSERT_EQ(round.num_rows(), views.train.num_rows());
  ASSERT_EQ(round.num_features(), views.train.num_features());
  for (size_t j = 0; j < round.num_features(); ++j) {
    const FeatureSpec& a = round.feature_spec(j);
    const FeatureSpec& b = views.train.feature_spec(j);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.domain_size, b.domain_size);
    EXPECT_EQ(a.role, b.role);
  }
  for (size_t i = 0; i < round.num_rows(); ++i) {
    EXPECT_EQ(round.label(i), views.train.label(i));
    for (size_t j = 0; j < round.num_features(); ++j) {
      EXPECT_EQ(round.feature(i, j), views.train.feature(i, j));
    }
  }
}

TEST(CodeMatrixTest, UnfittedTreePredictIsSafe) {
  // An unfitted tree has no nodes to walk: both paths predict 0 for
  // every row instead of reading the empty node table.
  const Dataset data = MakeParityDataset(5, {3, 2}, 9);
  const DataView view(&data);
  ml::DecisionTree tree;
  EXPECT_EQ(tree.Predict(view, 0), 0);
  EXPECT_EQ(tree.PredictAll(view), std::vector<uint8_t>(5, 0));
}

// -------------------------------------------------------- parity harness --

/// Parameterised over the HAMLET_THREADS value; every parity property must
/// hold both serially and with real pool parallelism.
class CodeMatrixParityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CodeMatrixParityTest, PredictPathsAreBitIdentical) {
  ScopedThreads env(GetParam());
  const Dataset data = MakeParityDataset(150, {4, 7, 3, 5}, 21);
  const ParityViews views = MakeParityViews(data, 5);
  for (const ParityLearner& learner : ParityLearners()) {
    SCOPED_TRACE(learner.name);
    std::unique_ptr<ml::Classifier> model = learner.make();
    ASSERT_TRUE(model->Fit(views.train).ok());
    ExpectPredictParity(*model, views.test);
    // The training view itself must also agree (train accuracy paths).
    ExpectPredictParity(*model, views.train);
  }
}

TEST_P(CodeMatrixParityTest, LargeViewParityExercisesParallelBatchPath) {
  ScopedThreads env(GetParam());
  // The dense batch path fans out on the pool only when rows x the
  // learner's PredictRowCost() reaches ml::kSerialPredictWork. A small
  // train view keeps the fits cheap; the test view is then sized from
  // the cheapest fitted learner, so every learner's PredictAll takes the
  // parallel branch. Both views select the columns out of order, and the
  // test view's rows are shuffled.
  const std::vector<uint32_t> domains = {4, 6, 3};
  const std::vector<uint32_t> columns = {2, 0, 1};
  const Dataset train_data = MakeParityDataset(150, domains, 83);
  std::vector<uint32_t> train_ids(train_data.num_rows());
  std::iota(train_ids.begin(), train_ids.end(), 0u);
  const DataView train(&train_data, train_ids, columns);

  std::vector<std::unique_ptr<ml::Classifier>> models;
  size_t test_rows = 0;
  for (const ParityLearner& learner : ParityLearners()) {
    models.push_back(learner.make());
    ASSERT_TRUE(models.back()->Fit(train).ok()) << learner.name;
    const size_t cost = models.back()->PredictRowCost();
    ASSERT_GT(cost, 0u) << learner.name;
    test_rows = std::max(test_rows,
                         (ml::kSerialPredictWork + cost - 1) / cost);
  }
  // Leave the pool's last range ragged at HAMLET_THREADS=4: the row count
  // is not a multiple of the range size.
  while (test_rows % ml::PredictRangeRows(test_rows, 4) == 0) ++test_rows;
  const Dataset test_data = MakeParityDataset(test_rows, domains, 84);
  std::vector<uint32_t> order(test_data.num_rows());
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(12);
  rng.Shuffle(order);
  const DataView test(&test_data, order, columns);

  const std::vector<ParityLearner> learners = ParityLearners();
  for (size_t k = 0; k < models.size(); ++k) {
    SCOPED_TRACE(learners[k].name);
    EXPECT_TRUE(ml::PredictFansOut(test.num_rows(),
                                   models[k]->PredictRowCost()));
    ExpectPredictParity(*models[k], test);
  }
}

TEST_P(CodeMatrixParityTest, RoundTripFitMatchesDirectFit) {
  ScopedThreads env(GetParam());
  const Dataset data = MakeParityDataset(120, {5, 4, 6}, 31);
  const ParityViews views = MakeParityViews(data, 17);
  const Dataset round = RoundTripDataset(views.train);
  const DataView round_view(&round);
  for (const ParityLearner& learner : ParityLearners()) {
    SCOPED_TRACE(learner.name);
    std::unique_ptr<ml::Classifier> direct = learner.make();
    std::unique_ptr<ml::Classifier> through_matrix = learner.make();
    ASSERT_TRUE(direct->Fit(views.train).ok());
    ASSERT_TRUE(through_matrix->Fit(round_view).ok());
    EXPECT_EQ(direct->PredictAll(views.test),
              through_matrix->PredictAll(views.test));
  }
}

TEST_P(CodeMatrixParityTest, TreePrintedStructureSurvivesRoundTrip) {
  ScopedThreads env(GetParam());
  const Dataset data = MakeParityDataset(200, {6, 8, 4}, 43);
  const ParityViews views = MakeParityViews(data, 3);
  const Dataset round = RoundTripDataset(views.train);
  const DataView round_view(&round);

  ml::DecisionTree direct;
  ml::DecisionTree through_matrix;
  ASSERT_TRUE(direct.Fit(views.train).ok());
  ASSERT_TRUE(through_matrix.Fit(round_view).ok());
  EXPECT_GT(direct.num_nodes(), 1u);
  EXPECT_EQ(ml::PrintTree(direct, views.train),
            ml::PrintTree(through_matrix, round_view));
  EXPECT_EQ(ml::PrintFeatureUsage(direct, views.train),
            ml::PrintFeatureUsage(through_matrix, round_view));
}

TEST_P(CodeMatrixParityTest, ZeroFeatureViewsFitAndPredict) {
  ScopedThreads env(GetParam());
  const Dataset data = MakeParityDataset(60, {4, 3}, 57);
  std::vector<uint32_t> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), 0u);
  const DataView no_features(&data, rows, {});
  for (const ParityLearner& learner : ParityLearners()) {
    SCOPED_TRACE(learner.name);
    std::unique_ptr<ml::Classifier> model = learner.make();
    ASSERT_TRUE(model->Fit(no_features).ok());
    const std::vector<uint8_t> preds =
        ExpectPredictParity(*model, no_features);
    // With no features every row is indistinguishable: the prediction
    // must be constant across rows.
    for (uint8_t p : preds) EXPECT_EQ(p, preds[0]);
  }
}

TEST_P(CodeMatrixParityTest, EmptyTrainingViewIsRejected) {
  ScopedThreads env(GetParam());
  const Dataset data = MakeParityDataset(10, {3, 2}, 5);
  const DataView empty(&data, {}, {0, 1});
  for (const ParityLearner& learner : ParityLearners()) {
    SCOPED_TRACE(learner.name);
    std::unique_ptr<ml::Classifier> model = learner.make();
    const Status status = model->Fit(empty);
    EXPECT_FALSE(status.ok());
  }
}

TEST_P(CodeMatrixParityTest, PredictAllOnEmptyTestViewIsEmpty) {
  ScopedThreads env(GetParam());
  const Dataset data = MakeParityDataset(50, {4, 5}, 71);
  const ParityViews views = MakeParityViews(data, 2);
  const DataView no_rows(&data, {}, views.test.features());
  for (const ParityLearner& learner : ParityLearners()) {
    SCOPED_TRACE(learner.name);
    std::unique_ptr<ml::Classifier> model = learner.make();
    ASSERT_TRUE(model->Fit(views.train).ok());
    EXPECT_TRUE(model->PredictAll(no_rows).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CodeMatrixParityTest,
                         ::testing::Values("1", "4"),
                         [](const ::testing::TestParamInfo<const char*>& p) {
                           return std::string("threads_") + p.param;
                         });

// Predictions (and therefore accuracies) must be identical when the whole
// fit + score pipeline runs at different thread counts.
TEST(CodeMatrixParityThreadsTest, PredictionsIdenticalAcrossThreadCounts) {
  const Dataset data = MakeParityDataset(150, {4, 7, 3, 5}, 77);
  const ParityViews views = MakeParityViews(data, 29);
  for (const ParityLearner& learner : ParityLearners()) {
    SCOPED_TRACE(learner.name);
    std::vector<uint8_t> serial, parallel_preds;
    double serial_acc = 0.0, parallel_acc = 0.0;
    {
      ScopedThreads env("1");
      std::unique_ptr<ml::Classifier> model = learner.make();
      ASSERT_TRUE(model->Fit(views.train).ok());
      serial = model->PredictAll(views.test);
      serial_acc = ml::Accuracy(*model, views.test);
    }
    {
      ScopedThreads env("4");
      std::unique_ptr<ml::Classifier> model = learner.make();
      ASSERT_TRUE(model->Fit(views.train).ok());
      parallel_preds = model->PredictAll(views.test);
      parallel_acc = ml::Accuracy(*model, views.test);
    }
    EXPECT_EQ(serial, parallel_preds);
    EXPECT_DOUBLE_EQ(serial_acc, parallel_acc);
  }
}

}  // namespace
}  // namespace hamlet
