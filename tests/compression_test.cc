// Tests for hamlet/core/fk_compression: random hashing and sort-based
// conditional-entropy domain compression (paper §6.1).

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "hamlet/common/rng.h"
#include "hamlet/core/fk_compression.h"
#include "hamlet/data/split.h"
#include "hamlet/ml/metrics.h"
#include "hamlet/ml/tree/decision_tree.h"

namespace hamlet {
namespace core {
namespace {

/// Binary entropy in nats from (pos, total); 0 for empty/pure.
double BinaryEntropy(double pos, double total) {
  if (total <= 0.0 || pos <= 0.0 || pos >= total) return 0.0;
  const double p = pos / total;
  return -p * std::log(p) - (1.0 - p) * std::log(1.0 - p);
}

/// H(Y | X) on the view for one (compressed) column: the oracle for the
/// sorted-entropy claim that compression should not raise it much.
double ConditionalEntropy(const DataView& view, size_t view_feature) {
  const uint32_t m = view.domain_size(view_feature);
  std::vector<double> pos(m, 0.0), total(m, 0.0);
  const double n = static_cast<double>(view.num_rows());
  if (n == 0.0) return 0.0;
  for (size_t i = 0; i < view.num_rows(); ++i) {
    const uint32_t c = view.feature(i, view_feature);
    total[c] += 1.0;
    pos[c] += view.label(i);
  }
  double h = 0.0;
  for (uint32_t v = 0; v < m; ++v) {
    if (total[v] > 0.0) {
      h += (total[v] / n) * BinaryEntropy(pos[v], total[v]);
    }
  }
  return h;
}

/// FK-determined labels over a domain of m values, plus a noise feature.
Dataset MakeFkDataset(uint32_t m, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> fk_label(m);
  for (auto& v : fk_label) v = static_cast<uint8_t>(rng.UniformInt(2));
  Dataset d({{"fk", m, FeatureRole::kForeignKey, 0},
             {"noise", 2, FeatureRole::kHome, -1}});
  for (size_t i = 0; i < n; ++i) {
    const uint32_t fk = static_cast<uint32_t>(rng.UniformInt(m));
    d.AppendRowUnchecked({fk, static_cast<uint32_t>(rng.UniformInt(2))},
                         fk_label[fk]);
  }
  return d;
}

TEST(RandomHashTest, MapsIntoBudget) {
  DomainMapping map = BuildRandomHashMapping(1000, 16, 7).value();
  EXPECT_EQ(map.map.size(), 1000u);
  EXPECT_EQ(map.new_domain, 16u);
  std::set<uint32_t> used;
  for (uint32_t v : map.map) {
    EXPECT_LT(v, 16u);
    used.insert(v);
  }
  EXPECT_GT(used.size(), 8u);  // a reasonable hash spreads values
}

TEST(RandomHashTest, DeterministicPerSeedAndSpreadsAcrossSeeds) {
  DomainMapping a = BuildRandomHashMapping(100, 8, 1).value();
  DomainMapping b = BuildRandomHashMapping(100, 8, 1).value();
  EXPECT_EQ(a.map, b.map);
  DomainMapping c = BuildRandomHashMapping(100, 8, 2).value();
  EXPECT_NE(a.map, c.map);
}

TEST(RandomHashTest, BudgetLargerThanDomainIsIdentitySized) {
  DomainMapping map = BuildRandomHashMapping(5, 100, 3).value();
  EXPECT_EQ(map.new_domain, 5u);
}

TEST(RandomHashMappingTest, ZeroBudgetIsInvalidArgument) {
  // min(m, 0) buckets would make every hash a division by zero.
  for (uint32_t m : {0u, 1u, 100u}) {
    Result<DomainMapping> map = BuildRandomHashMapping(m, 0, 3);
    ASSERT_FALSE(map.ok());
    EXPECT_EQ(map.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(RandomHashMappingTest, BudgetOfOneSendsEveryCodeToZero) {
  // The smallest budget the guard accepts: one bucket, no division by 0.
  Result<DomainMapping> map = BuildRandomHashMapping(50, 1, 3);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map.value().new_domain, 1u);
  EXPECT_EQ(map.value().map, std::vector<uint32_t>(50, 0u));
}

TEST(SortedEntropyTest, SeparatesPureGroups) {
  // Codes 0..4 always positive, 5..9 always negative: with budget 2, the
  // mapping must split them into different buckets.
  Dataset d({{"fk", 10, FeatureRole::kForeignKey, 0}});
  Rng rng(4);
  for (int i = 0; i < 400; ++i) {
    const uint32_t fk = static_cast<uint32_t>(rng.UniformInt(10));
    d.AppendRowUnchecked({fk}, static_cast<uint8_t>(fk < 5));
  }
  DataView train(&d);
  Result<DomainMapping> map = BuildSortedEntropyMapping(train, 0, 2);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map.value().new_domain, 2u);
  // All positive codes share a bucket; all negative codes share the other.
  // (Both groups have zero conditional entropy, so the boundary falls at a
  // zero gap; the partition must still respect the two-group structure in
  // the sense that H(Y|f(FK)) stays 0.)
  ASSERT_TRUE(ApplyMapping(d, 0, map.value()).ok());
  const double h = ConditionalEntropy(DataView(&d), 0);
  EXPECT_LT(h, 0.4);  // far below the unconditional entropy log(2)=0.693
}

TEST(SortedEntropyTest, PreservesConditionalEntropyBetterThanRandom) {
  // The design claim behind the Sort-based method (paper §6.1).
  Dataset d = MakeFkDataset(200, 4000, 5);
  DataView train(&d);
  const double h_full = ConditionalEntropy(train, 0);

  Result<DomainMapping> sorted = BuildSortedEntropyMapping(train, 0, 8);
  ASSERT_TRUE(sorted.ok());
  DomainMapping random = BuildRandomHashMapping(200, 8, 6).value();

  Dataset d_sorted = d;
  ASSERT_TRUE(ApplyMapping(d_sorted, 0, sorted.value()).ok());
  Dataset d_random = d;
  ASSERT_TRUE(ApplyMapping(d_random, 0, random).ok());

  const double h_sorted = ConditionalEntropy(DataView(&d_sorted), 0);
  const double h_random = ConditionalEntropy(DataView(&d_random), 0);
  EXPECT_LE(h_sorted, h_random + 1e-9);
  EXPECT_GE(h_sorted, h_full - 1e-9);  // compression cannot reduce H(Y|FK)
}

TEST(SortedEntropyTest, UnseenCodesGoToBucketZero) {
  Dataset d({{"fk", 10, FeatureRole::kForeignKey, 0}});
  for (int i = 0; i < 50; ++i) {
    d.AppendRowUnchecked({static_cast<uint32_t>(i % 5)},
                         static_cast<uint8_t>(i % 2));
  }
  DataView train(&d);
  Result<DomainMapping> map = BuildSortedEntropyMapping(train, 0, 3);
  ASSERT_TRUE(map.ok());
  for (uint32_t v = 5; v < 10; ++v) {
    EXPECT_EQ(map.value().map[v], 0u);
  }
}

TEST(SortedEntropyTest, ValidatesArguments) {
  Dataset d = MakeFkDataset(10, 50, 7);
  DataView train(&d);
  EXPECT_FALSE(BuildSortedEntropyMapping(train, 5, 2).ok());
  EXPECT_FALSE(BuildSortedEntropyMapping(train, 0, 0).ok());
  DataView empty(&d, {}, {0, 1});
  EXPECT_FALSE(BuildSortedEntropyMapping(empty, 0, 2).ok());
}

TEST(ApplyMappingTest, RewritesColumnAndDomain) {
  Dataset d = MakeFkDataset(20, 100, 8);
  DomainMapping map = BuildRandomHashMapping(20, 4, 9).value();
  ASSERT_TRUE(ApplyMapping(d, 0, map).ok());
  EXPECT_EQ(d.feature_spec(0).domain_size, 4u);
  for (size_t i = 0; i < d.num_rows(); ++i) {
    EXPECT_LT(d.feature(i, 0), 4u);
  }
}

TEST(ApplyMappingTest, ValidatesSizeMismatch) {
  Dataset d = MakeFkDataset(20, 50, 10);
  // wrong old domain
  DomainMapping map = BuildRandomHashMapping(19, 4, 9).value();
  EXPECT_FALSE(ApplyMapping(d, 0, map).ok());
}

TEST(ApplyMappingTest, DomainPreservingMapRewritesOnlyMovedCodes) {
  // The FK-smoothing shape: seen codes map to themselves, the domain stays.
  Dataset fk({{"fk", 4, FeatureRole::kForeignKey, 0}});
  for (uint32_t c : {0u, 1u, 3u, 2u}) fk.AppendRowUnchecked({c}, 0);
  DomainMapping smooth;
  smooth.map = {0, 1, 1, 3};  // code 2 -> 1
  smooth.new_domain = 4;
  ASSERT_TRUE(ApplyMapping(fk, 0, smooth).ok());
  EXPECT_EQ(fk.feature(0, 0), 0u);
  EXPECT_EQ(fk.feature(1, 0), 1u);
  EXPECT_EQ(fk.feature(2, 0), 3u);
  EXPECT_EQ(fk.feature(3, 0), 1u);  // rewritten
  EXPECT_EQ(fk.feature_spec(0).domain_size, 4u);  // domain unchanged
}

TEST(ApplyMappingTest, DomainPreservingMapValidatesItsSize) {
  Dataset d = MakeFkDataset(20, 50, 10);
  DomainMapping smooth;
  smooth.map = {0, 1};  // two codes for a 20-code domain
  smooth.new_domain = 20;
  EXPECT_FALSE(ApplyMapping(d, 0, smooth).ok());
}

TEST(CompressionEndToEnd, TreeAccuracySurvivesModestCompression) {
  // Compressing a 100-value FK to 25 buckets with the supervised method
  // should retain most of the tree's accuracy (Figure 10's qualitative
  // claim), while budget 1 (constant feature) must hurt.
  Dataset d = MakeFkDataset(100, 3000, 11);
  TrainValTest split = SplitPaper(d.num_rows(), 12);

  auto run = [&](uint32_t budget) {
    Dataset copy = d;
    DataView train_for_map(&copy, split.train, {0, 1});
    Result<DomainMapping> map =
        BuildSortedEntropyMapping(train_for_map, 0, budget);
    EXPECT_TRUE(map.ok());
    EXPECT_TRUE(ApplyMapping(copy, 0, map.value()).ok());
    SplitViews views = MakeSplitViews(copy, split, {0, 1});
    ml::DecisionTree tree({.minsplit = 10, .cp = 0.0});
    EXPECT_TRUE(tree.Fit(views.train).ok());
    return ml::Accuracy(tree, views.test);
  };

  const double acc_25 = run(25);
  const double acc_1 = run(1);
  EXPECT_GT(acc_25, 0.8);
  EXPECT_LT(acc_1, 0.65);
}

TEST(CompressionTest, MethodNames) {
  EXPECT_STREQ(CompressionMethodName(CompressionMethod::kRandomHash),
               "random-hash");
  EXPECT_STREQ(CompressionMethodName(CompressionMethod::kSortedEntropy),
               "sorted-entropy");
}

}  // namespace
}  // namespace core
}  // namespace hamlet
