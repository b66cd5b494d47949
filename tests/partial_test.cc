// Tests for hamlet/core/partial_avoidance: MI estimation and the top-k
// partial join-avoidance feature sets (paper §5.2's trade-off space).

#include <gtest/gtest.h>

#include <cmath>

#include "hamlet/common/rng.h"
#include "hamlet/core/partial_avoidance.h"
#include "hamlet/core/variants.h"
#include "hamlet/data/split.h"

namespace hamlet {
namespace core {
namespace {

// ------------------------------------------------------------------- MI --

TEST(MutualInformationTest, PerfectPredictorHasLabelEntropy) {
  // X == Y: I(Y;X) = H(Y) = log 2 for balanced labels.
  Dataset d({{"x", 2, FeatureRole::kHome, -1}});
  for (int i = 0; i < 100; ++i) {
    d.AppendRowUnchecked({static_cast<uint32_t>(i % 2)},
                         static_cast<uint8_t>(i % 2));
  }
  EXPECT_NEAR(MutualInformationWithLabel(DataView(&d), 0), std::log(2.0),
              1e-9);
}

TEST(MutualInformationTest, IndependentFeatureHasNearZeroMi) {
  Rng rng(3);
  Dataset d({{"x", 4, FeatureRole::kHome, -1}});
  for (int i = 0; i < 4000; ++i) {
    d.AppendRowUnchecked({static_cast<uint32_t>(rng.UniformInt(4))},
                         rng.Bernoulli(0.5) ? 1 : 0);
  }
  EXPECT_LT(MutualInformationWithLabel(DataView(&d), 0), 0.005);
}

TEST(MutualInformationTest, MonotoneInSignalStrength) {
  auto mi_for = [](double flip) {
    Rng rng(5);
    Dataset d({{"x", 2, FeatureRole::kHome, -1}});
    for (int i = 0; i < 3000; ++i) {
      const uint32_t x = static_cast<uint32_t>(rng.UniformInt(2));
      const uint8_t y = rng.Bernoulli(flip)
                            ? static_cast<uint8_t>(1 - x)
                            : static_cast<uint8_t>(x);
      d.AppendRowUnchecked({x}, y);
    }
    return MutualInformationWithLabel(DataView(&d), 0);
  };
  EXPECT_GT(mi_for(0.05), mi_for(0.2));
  EXPECT_GT(mi_for(0.2), mi_for(0.45));
}

TEST(MutualInformationTest, EmptyViewIsZero) {
  Dataset d({{"x", 2, FeatureRole::kHome, -1}});
  d.AppendRowUnchecked({0}, 0);
  DataView empty(&d, {}, {0});
  EXPECT_DOUBLE_EQ(MutualInformationWithLabel(empty, 0), 0.0);
}

// ------------------------------------------------------------- ranking --

Dataset MakeJoinedWithSignal(uint64_t seed) {
  // Two dims; dim 0's "good" column determines Y, everything else noise.
  Dataset d({{"h", 2, FeatureRole::kHome, -1},
             {"fk_a", 10, FeatureRole::kForeignKey, 0},
             {"fk_b", 10, FeatureRole::kForeignKey, 1},
             {"a.good", 2, FeatureRole::kForeign, 0},
             {"a.noise", 4, FeatureRole::kForeign, 0},
             {"b.noise1", 3, FeatureRole::kForeign, 1},
             {"b.noise2", 3, FeatureRole::kForeign, 1}});
  Rng rng(seed);
  for (int i = 0; i < 1200; ++i) {
    const uint32_t good = static_cast<uint32_t>(rng.UniformInt(2));
    d.AppendRowUnchecked({static_cast<uint32_t>(rng.UniformInt(2)),
                          static_cast<uint32_t>(rng.UniformInt(10)),
                          static_cast<uint32_t>(rng.UniformInt(10)), good,
                          static_cast<uint32_t>(rng.UniformInt(4)),
                          static_cast<uint32_t>(rng.UniformInt(3)),
                          static_cast<uint32_t>(rng.UniformInt(3))},
                         static_cast<uint8_t>(good));
  }
  return d;
}

TEST(RankingTest, SignalColumnRanksFirst) {
  Dataset d = MakeJoinedWithSignal(7);
  DataView train(&d);
  const auto ranking = RankForeignFeatures(d, train);
  ASSERT_EQ(ranking.size(), 4u);  // only kForeign columns
  EXPECT_EQ(d.feature_spec(ranking[0].column).name, "a.good");
  EXPECT_GT(ranking[0].mutual_information,
            5 * ranking[1].mutual_information);
  // Descending order throughout.
  for (size_t k = 1; k < ranking.size(); ++k) {
    EXPECT_GE(ranking[k - 1].mutual_information,
              ranking[k].mutual_information);
  }
}

// --------------------------------------------------- partial avoidance --

TEST(PartialAvoidanceTest, KZeroIsNoJoin) {
  Dataset d = MakeJoinedWithSignal(9);
  DataView train(&d);
  EXPECT_EQ(SelectPartialAvoidance(d, train, 0),
            SelectVariant(d, FeatureVariant::kNoJoin));
}

TEST(PartialAvoidanceTest, KLargeIsJoinAll) {
  Dataset d = MakeJoinedWithSignal(10);
  DataView train(&d);
  EXPECT_EQ(SelectPartialAvoidance(d, train, 100),
            SelectVariant(d, FeatureVariant::kJoinAll));
}

TEST(PartialAvoidanceTest, KOneKeepsTopFeaturePerDimension) {
  Dataset d = MakeJoinedWithSignal(11);
  DataView train(&d);
  const auto cols = SelectPartialAvoidance(d, train, 1);
  // home + 2 fks + 1 foreign per dim = 5 columns.
  ASSERT_EQ(cols.size(), 5u);
  bool has_good = false;
  size_t dim1_foreign = 0;
  for (uint32_t c : cols) {
    if (d.feature_spec(c).name == "a.good") has_good = true;
    if (d.feature_spec(c).role == FeatureRole::kForeign &&
        d.feature_spec(c).dim_index == 1) {
      ++dim1_foreign;
    }
  }
  EXPECT_TRUE(has_good);  // the signal column must be the dim-0 pick
  EXPECT_EQ(dim1_foreign, 1u);
}

TEST(PartialAvoidanceTest, SubsetMonotoneInK) {
  // Property: the k-subset is contained in the (k+1)-subset.
  Dataset d = MakeJoinedWithSignal(12);
  DataView train(&d);
  std::vector<uint32_t> prev = SelectPartialAvoidance(d, train, 0);
  for (size_t k = 1; k <= 3; ++k) {
    const std::vector<uint32_t> cur = SelectPartialAvoidance(d, train, k);
    for (uint32_t c : prev) {
      EXPECT_NE(std::find(cur.begin(), cur.end(), c), cur.end())
          << "column " << c << " dropped when k grew to " << k;
    }
    prev = cur;
  }
}

}  // namespace
}  // namespace core
}  // namespace hamlet
