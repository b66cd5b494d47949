// Tests for hamlet/core/fk_smoothing: random and X_R-based reassignment of
// FK values unseen in training (paper §6.2).

#include <gtest/gtest.h>

#include <algorithm>

#include "hamlet/common/rng.h"
#include "hamlet/core/fk_smoothing.h"
#include "hamlet/data/split.h"

namespace hamlet {
namespace core {
namespace {

Dataset MakeFkOnly(uint32_t m, const std::vector<uint32_t>& fks) {
  Dataset d({{"fk", m, FeatureRole::kForeignKey, 0}});
  for (uint32_t fk : fks) d.AppendRowUnchecked({fk}, 0);
  return d;
}

/// Codes a smoothing map moves; each unseen code moves to a seen one.
size_t MovedCodes(const DomainMapping& map) {
  size_t moved = 0;
  for (uint32_t v = 0; v < map.map.size(); ++v) moved += map.map[v] != v;
  return moved;
}

size_t Unseen(const std::vector<uint8_t>& seen) {
  return static_cast<size_t>(std::count(seen.begin(), seen.end(), 0));
}

TEST(SeenCodesTest, MarksExactlyTrainingCodes) {
  Dataset d = MakeFkOnly(6, {0, 2, 2, 4});
  const std::vector<uint8_t> seen = SeenCodes(DataView(&d), 0);
  EXPECT_EQ(seen, (std::vector<uint8_t>{1, 0, 1, 0, 1, 0}));
}

TEST(RandomSmoothingTest, SeenCodesMapToThemselves) {
  std::vector<uint8_t> seen = {1, 0, 1, 0};
  Result<DomainMapping> map = BuildRandomSmoothing(seen, 3);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map.value().map[0], 0u);
  EXPECT_EQ(map.value().map[2], 2u);
  EXPECT_EQ(map.value().new_domain, 4u);  // smoothing keeps the domain
  EXPECT_EQ(MovedCodes(map.value()), Unseen(seen));
  // Unseen codes land on seen ones.
  for (uint32_t v : {1u, 3u}) {
    const uint32_t target = map.value().map[v];
    EXPECT_TRUE(target == 0u || target == 2u);
  }
}

TEST(RandomSmoothingTest, FailsWithNothingSeen) {
  Result<DomainMapping> map = BuildRandomSmoothing({0, 0, 0}, 1);
  ASSERT_FALSE(map.ok());
  EXPECT_EQ(map.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RandomSmoothingTest, NoUnseenIsIdentity) {
  Result<DomainMapping> map = BuildRandomSmoothing({1, 1, 1}, 1);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map.value().new_domain, 3u);
  EXPECT_EQ(MovedCodes(map.value()), 0u);
  for (uint32_t v = 0; v < 3; ++v) EXPECT_EQ(map.value().map[v], v);
}

TEST(XrSmoothingTest, PicksMinimumL0Neighbour) {
  // Dimension rows: 0:(0,0) seen, 1:(5,5) seen, 2:(0,1) unseen.
  // Code 2 is closer to row 0 (distance 1) than row 1 (distance 2).
  Table dim(TableSchema({{"a", 6}, {"b", 6}}));
  dim.AppendRowUnchecked({0, 0});
  dim.AppendRowUnchecked({5, 5});
  dim.AppendRowUnchecked({0, 1});
  const std::vector<uint8_t> seen = {1, 1, 0};
  Result<DomainMapping> map = BuildXrSmoothing(seen, dim);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map.value().map[2], 0u);
  EXPECT_EQ(map.value().new_domain, 3u);
  EXPECT_EQ(MovedCodes(map.value()), Unseen(seen));
}

TEST(XrSmoothingTest, TieBreaksTowardSmallestCode) {
  // Unseen code 2:(1,1) is equidistant (1) from rows 0:(1,0) and 1:(0,1).
  Table dim(TableSchema({{"a", 2}, {"b", 2}}));
  dim.AppendRowUnchecked({1, 0});
  dim.AppendRowUnchecked({0, 1});
  dim.AppendRowUnchecked({1, 1});
  Result<DomainMapping> map = BuildXrSmoothing({1, 1, 0}, dim);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map.value().map[2], 0u);
}

TEST(XrSmoothingTest, ExactXrMatchWins) {
  Table dim(TableSchema({{"a", 4}}));
  dim.AppendRowUnchecked({3});
  dim.AppendRowUnchecked({1});
  dim.AppendRowUnchecked({1});  // unseen, identical X_R to row 1
  Result<DomainMapping> map = BuildXrSmoothing({1, 1, 0}, dim);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map.value().map[2], 1u);
}

TEST(XrSmoothingTest, ValidatesBitmapSize) {
  Table dim(TableSchema({{"a", 2}}));
  dim.AppendRowUnchecked({0});
  EXPECT_FALSE(BuildXrSmoothing({1, 0}, dim).ok());  // 2 codes, 1 row
}

TEST(XrSmoothingTest, FailsWithNothingSeen) {
  // Same precondition as the random builder: no seen code to send to.
  Table dim(TableSchema({{"x", 2}}));
  dim.AppendRowUnchecked({0});
  dim.AppendRowUnchecked({1});
  Result<DomainMapping> map = BuildXrSmoothing({0, 0}, dim);
  ASSERT_FALSE(map.ok());
  EXPECT_EQ(map.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SmoothingEndToEnd, AppliedMapLeavesOnlySeenCodes) {
  // Fit on a training prefix, rewrite the whole column through
  // ApplyMapping: every code is now a training code, rows whose code was
  // seen keep it, and the FK domain is unchanged.
  Dataset d = MakeFkOnly(8, {0, 3, 3, 5, 1, 2, 7, 6, 4, 0});
  const Dataset original = d;
  const DataView train(&d, {0, 1, 2, 3}, {0});
  const std::vector<uint8_t> seen = SeenCodes(train, 0);
  Result<DomainMapping> map = BuildRandomSmoothing(seen, 5);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(ApplyMapping(d, 0, map.value()).ok());
  EXPECT_EQ(d.feature_spec(0).domain_size, 8u);
  for (size_t i = 0; i < d.num_rows(); ++i) {
    const uint32_t before = original.feature(i, 0);
    EXPECT_TRUE(seen[d.feature(i, 0)]) << "row " << i;
    if (seen[before]) {
      EXPECT_EQ(d.feature(i, 0), before) << "row " << i;
    }
  }
}

TEST(SmoothingEndToEnd, XrBasedBeatsRandomWhenXrCarriesSignal) {
  // OneXr-style setup: label determined by the dimension's Xr column.
  // Withhold a block of FK codes from training; X_R-based smoothing should
  // route those test rows to FK codes with the same Xr, random should not.
  Rng rng(13);
  const uint32_t nr = 60;
  Table dim(TableSchema({{"xr", 2}, {"noise", 2}}));
  std::vector<uint32_t> xr_of(nr);
  for (uint32_t r = 0; r < nr; ++r) {
    xr_of[r] = static_cast<uint32_t>(rng.UniformInt(2));
    dim.AppendRowUnchecked(
        {xr_of[r], static_cast<uint32_t>(rng.UniformInt(2))});
  }
  // Train rows use codes [0, 40); test rows use all codes.
  Dataset data({{"fk", nr, FeatureRole::kForeignKey, 0}});
  std::vector<uint32_t> train_rows, test_rows;
  for (int i = 0; i < 1200; ++i) {
    const bool is_test = i >= 800;
    const uint32_t fk = static_cast<uint32_t>(
        is_test ? rng.UniformInt(nr) : rng.UniformInt(40));
    data.AppendRowUnchecked({fk}, static_cast<uint8_t>(xr_of[fk]));
    (is_test ? test_rows : train_rows).push_back(static_cast<uint32_t>(i));
  }
  DataView train(&data, train_rows, {0});
  const std::vector<uint8_t> seen = SeenCodes(train, 0);

  auto accuracy_with = [&](const DomainMapping& map) {
    Dataset copy = data;
    EXPECT_TRUE(ApplyMapping(copy, 0, map).ok());
    // A trivial FK-majority "model": per seen FK code majority label from
    // training rows (isolates the smoothing quality from model details).
    std::vector<int> pos(nr, 0), tot(nr, 0);
    for (uint32_t r : train_rows) {
      ++tot[copy.feature(r, 0)];
      pos[copy.feature(r, 0)] += copy.label(r);
    }
    size_t hits = 0;
    for (uint32_t r : test_rows) {
      const uint32_t fk = copy.feature(r, 0);
      const uint8_t pred = (tot[fk] > 0 && 2 * pos[fk] > tot[fk]) ? 1 : 0;
      hits += pred == copy.label(r);
    }
    return static_cast<double>(hits) / test_rows.size();
  };

  Result<DomainMapping> xr = BuildXrSmoothing(seen, dim);
  ASSERT_TRUE(xr.ok());
  Result<DomainMapping> random = BuildRandomSmoothing(seen, 17);
  ASSERT_TRUE(random.ok());
  const double acc_xr = accuracy_with(xr.value());
  const double acc_random = accuracy_with(random.value());
  EXPECT_GT(acc_xr, 0.95);          // Xr determines the label exactly
  EXPECT_GT(acc_xr, acc_random);    // the paper's Figure 11 ordering
}

TEST(SmoothingTest, MethodNames) {
  EXPECT_STREQ(SmoothingMethodName(SmoothingMethod::kRandom), "random");
  EXPECT_STREQ(SmoothingMethodName(SmoothingMethod::kXrBased), "xr-based");
}

}  // namespace
}  // namespace core
}  // namespace hamlet
