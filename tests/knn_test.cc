// Tests for hamlet/ml/knn: 1-nearest-neighbour.

#include <gtest/gtest.h>

#include "hamlet/common/rng.h"
#include "hamlet/data/code_matrix.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/view.h"
#include "hamlet/ml/knn/one_nn.h"
#include "hamlet/ml/metrics.h"

namespace hamlet {
namespace ml {
namespace {

Dataset MakeDataset(const std::vector<std::vector<uint32_t>>& rows,
                    const std::vector<uint8_t>& labels,
                    std::vector<uint32_t> domains) {
  std::vector<FeatureSpec> specs;
  for (size_t j = 0; j < domains.size(); ++j) {
    specs.push_back(
        {"f" + std::to_string(j), domains[j], FeatureRole::kHome, -1});
  }
  Dataset d(specs);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(d.AppendRow(rows[i], labels[i]).ok());
  }
  return d;
}

TEST(OneNnTest, ExactMatchWins) {
  Dataset d = MakeDataset({{0, 0}, {1, 1}, {0, 1}}, {0, 1, 0}, {2, 2});
  OneNearestNeighbor knn;
  ASSERT_TRUE(knn.Fit(DataView(&d)).ok());
  // Training rows are their own nearest neighbours.
  DataView v(&d);
  const CodeMatrix m(v);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(knn.NearestIndexOfCodes(m.row(i)), i);
    EXPECT_EQ(knn.Predict(v, i), d.label(i));
  }
}

TEST(OneNnTest, HammingDistanceSemantics) {
  // Train: (0,0,0)->0, (1,1,1)->1. Query (1,1,0) is closer to the second.
  Dataset train = MakeDataset({{0, 0, 0}, {1, 1, 1}}, {0, 1}, {2, 2, 2});
  OneNearestNeighbor knn;
  ASSERT_TRUE(knn.Fit(DataView(&train)).ok());
  Dataset q = MakeDataset({{1, 1, 0}}, {0}, {2, 2, 2});
  EXPECT_EQ(knn.Predict(DataView(&q), 0), 1);
}

TEST(OneNnTest, TieBreaksTowardEarliestTrainingRow) {
  // Query (0,1) is at distance 1 from both training rows; the first wins.
  Dataset train = MakeDataset({{0, 0}, {1, 1}}, {0, 1}, {2, 2});
  OneNearestNeighbor knn;
  ASSERT_TRUE(knn.Fit(DataView(&train)).ok());
  Dataset q = MakeDataset({{0, 1}}, {0}, {2, 2});
  EXPECT_EQ(knn.NearestIndexOfCodes(CodeMatrix(DataView(&q)).row(0)), 0u);
  EXPECT_EQ(knn.Predict(DataView(&q), 0), 0);
}

TEST(OneNnTest, EmptyTrainingFails) {
  Dataset d = MakeDataset({{0}}, {0}, {2});
  DataView empty(&d, {}, {0});
  OneNearestNeighbor knn;
  EXPECT_FALSE(knn.Fit(empty).ok());
}

TEST(OneNnTest, MemorisesTrainingSetPerfectly) {
  // The paper (§5, Table 5): 1-NN training accuracy is ~1 because every
  // training point matches itself — unless an identical row has the
  // opposite label. Use distinct rows to avoid that.
  Dataset d({{"a", 64, FeatureRole::kHome, -1}});
  for (uint32_t i = 0; i < 64; ++i) {
    d.AppendRowUnchecked({i}, static_cast<uint8_t>(i % 2));
  }
  OneNearestNeighbor knn;
  ASSERT_TRUE(knn.Fit(DataView(&d)).ok());
  EXPECT_DOUBLE_EQ(Accuracy(knn, DataView(&d)), 1.0);
}

TEST(OneNnTest, FkMemorisationGeneralisesOverFiniteDomain) {
  // The paper's §5 insight: with a closed FK domain, matching on FK alone
  // recovers the FK-determined label on fresh test rows.
  Rng rng(5);
  const uint32_t nr = 20;
  std::vector<uint8_t> fk_label(nr);
  for (auto& v : fk_label) v = static_cast<uint8_t>(rng.UniformInt(2));
  auto make = [&](size_t n, uint64_t seed) {
    Dataset d({{"fk", nr, FeatureRole::kForeignKey, 0},
               {"noise", 2, FeatureRole::kHome, -1}});
    Rng r(seed);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t fk = static_cast<uint32_t>(r.UniformInt(nr));
      d.AppendRowUnchecked({fk, static_cast<uint32_t>(r.UniformInt(2))},
                           fk_label[fk]);
    }
    return d;
  };
  Dataset train = make(400, 6);
  Dataset test = make(200, 7);
  OneNearestNeighbor knn;
  ASSERT_TRUE(knn.Fit(DataView(&train)).ok());
  EXPECT_GT(Accuracy(knn, DataView(&test)), 0.95);
}

}  // namespace
}  // namespace ml
}  // namespace hamlet
