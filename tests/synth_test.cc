// Tests for hamlet/synth: distributions and the data generators.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "hamlet/common/rng.h"
#include "hamlet/relational/join.h"
#include "hamlet/synth/distributions.h"
#include "hamlet/synth/onexr.h"
#include "hamlet/synth/reponexr.h"
#include "hamlet/synth/realworld.h"
#include "hamlet/synth/xsxr.h"

namespace hamlet {
namespace synth {
namespace {

// --------------------------------------------------------- distributions --

TEST(DiscreteTest, ProbabilitiesNormalise) {
  Discrete d({2.0, 6.0, 2.0});
  EXPECT_NEAR(d.probability(0), 0.2, 1e-12);
  EXPECT_NEAR(d.probability(1), 0.6, 1e-12);
  EXPECT_NEAR(d.probability(2), 0.2, 1e-12);
}

TEST(DiscreteTest, SamplingMatchesWeights) {
  Discrete d({1.0, 0.0, 3.0});
  Rng rng(5);
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[d.Sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.75, 0.01);
}

TEST(DiscreteTest, UniformIsUniform) {
  Discrete d = MakeUniform(16);
  Rng rng(3);
  std::vector<int> counts(16, 0);
  const int n = 64000;
  for (int i = 0; i < n; ++i) ++counts[d.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, n / 16, 5 * std::sqrt(n / 16.0));
}

TEST(DiscreteTest, ZipfZeroExponentIsUniform) {
  Discrete d = MakeZipf(10, 0.0);
  for (size_t i = 0; i < 10; ++i) EXPECT_NEAR(d.probability(i), 0.1, 1e-12);
}

TEST(DiscreteTest, ZipfIsMonotoneDecreasing) {
  Discrete d = MakeZipf(20, 1.5);
  for (size_t i = 1; i < 20; ++i) {
    EXPECT_LT(d.probability(i), d.probability(i - 1));
  }
  // Head dominance grows with the exponent.
  Discrete steep = MakeZipf(20, 3.0);
  EXPECT_GT(steep.probability(0), d.probability(0));
}

TEST(DiscreteTest, NeedleAndThreadMass) {
  Discrete d = MakeNeedleAndThread(11, 0.5);
  EXPECT_NEAR(d.probability(0), 0.5, 1e-12);
  for (size_t i = 1; i < 11; ++i) EXPECT_NEAR(d.probability(i), 0.05, 1e-12);
}

// ----------------------------------------------------------------- OneXr --

TEST(OneXrTest, ShapeMatchesConfig) {
  OneXrConfig cfg;
  cfg.ns = 500;
  cfg.nr = 25;
  cfg.ds = 3;
  cfg.dr = 5;
  StarSchema star = GenerateOneXr(cfg);
  EXPECT_TRUE(star.Validate().ok());
  EXPECT_EQ(star.num_facts(), 500u);
  EXPECT_EQ(star.num_dimensions(), 1u);
  EXPECT_EQ(star.dimension(0).table.num_rows(), 25u);
  EXPECT_EQ(star.dimension(0).table.num_columns(), 5u);
  EXPECT_EQ(star.fact().num_columns(), 3u);
}

TEST(OneXrTest, DeterministicInSeed) {
  OneXrConfig cfg;
  cfg.seed = 11;
  StarSchema a = GenerateOneXr(cfg);
  StarSchema b = GenerateOneXr(cfg);
  ASSERT_EQ(a.num_facts(), b.num_facts());
  for (size_t i = 0; i < a.num_facts(); ++i) {
    EXPECT_EQ(a.labels()[i], b.labels()[i]);
    EXPECT_EQ(a.fk_column(0)[i], b.fk_column(0)[i]);
  }
}

TEST(OneXrTest, LabelFollowsXrWithNoise) {
  // P(Y = 1 | Xr = 1) = p: with p = 0.1 labels disagree with Xr ~90%.
  OneXrConfig cfg;
  cfg.ns = 20000;
  cfg.p = 0.1;
  cfg.seed = 3;
  StarSchema star = GenerateOneXr(cfg);
  size_t agree = 0;
  for (size_t i = 0; i < star.num_facts(); ++i) {
    const uint32_t xr = star.dimension(0).table.at(star.fk_column(0)[i], 0);
    agree += star.labels()[i] == (xr % 2);
  }
  EXPECT_NEAR(static_cast<double>(agree) / star.num_facts(), 0.1, 0.02);
}

TEST(OneXrTest, ZipfSkewConcentratesFks) {
  OneXrConfig uni;
  uni.ns = 20000;
  uni.nr = 40;
  uni.seed = 4;
  OneXrConfig zipf = uni;
  zipf.skew = FkSkew::kZipf;
  zipf.skew_param = 2.0;
  auto head_count = [](const StarSchema& star) {
    size_t cnt = 0;
    for (uint32_t fk : star.fk_column(0)) cnt += fk == 0;
    return cnt;
  };
  // Under Zipf(2), FK=0 takes ~61% of the mass vs 2.5% under uniform.
  EXPECT_GT(head_count(GenerateOneXr(zipf)),
            5 * head_count(GenerateOneXr(uni)));
}

TEST(OneXrTest, NeedleThreadSkewHitsNeedleMass) {
  OneXrConfig cfg;
  cfg.ns = 20000;
  cfg.nr = 40;
  cfg.skew = FkSkew::kNeedleThread;
  cfg.skew_param = 0.5;
  cfg.seed = 6;
  StarSchema star = GenerateOneXr(cfg);
  size_t needle = 0;
  for (uint32_t fk : star.fk_column(0)) needle += fk == 0;
  EXPECT_NEAR(static_cast<double>(needle) / star.num_facts(), 0.5, 0.02);
}

TEST(OneXrTest, WiderXrDomain) {
  OneXrConfig cfg;
  cfg.xr_domain = 8;
  cfg.seed = 9;
  StarSchema star = GenerateOneXr(cfg);
  EXPECT_EQ(star.dimension(0).table.schema().column(0).domain_size, 8u);
}

// ------------------------------------------------------------------ XSXR --

TEST(XsxrTest, ShapeMatchesConfig) {
  XsxrConfig cfg;
  cfg.ns = 400;
  cfg.nr = 20;
  cfg.ds = 3;
  cfg.dr = 4;
  StarSchema star = GenerateXsxr(cfg);
  EXPECT_TRUE(star.Validate().ok());
  EXPECT_EQ(star.num_facts(), 400u);
  EXPECT_EQ(star.dimension(0).table.num_rows(), 20u);
  EXPECT_EQ(star.dimension(0).table.num_columns(), 4u);
  EXPECT_EQ(star.fact().num_columns(), 3u);
}

TEST(XsxrTest, LabelIsDeterministicGivenFeatures) {
  // H(Y | X_S, X_R) = 0: any two examples agreeing on all features and the
  // dimension content must agree on the label.
  XsxrConfig cfg;
  cfg.ns = 3000;
  cfg.nr = 10;
  cfg.ds = 3;
  cfg.dr = 3;
  cfg.seed = 21;
  StarSchema star = GenerateXsxr(cfg);
  Result<Dataset> joined = JoinAllTables(star);
  ASSERT_TRUE(joined.ok());
  const Dataset& t = joined.value();
  // Key = (X_S bits, X_R bits) -> label must be constant.
  std::map<std::vector<uint32_t>, uint8_t> seen;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<uint32_t> key;
    for (size_t c = 0; c < t.num_features(); ++c) {
      if (t.feature_spec(c).role != FeatureRole::kForeignKey) {
        key.push_back(t.feature(r, c));
      }
    }
    auto [it, inserted] = seen.emplace(key, t.label(r));
    if (!inserted) {
      EXPECT_EQ(it->second, t.label(r)) << "H(Y|X) > 0 at row " << r;
    }
  }
}

TEST(XsxrTest, FkImpliesXr) {
  // The implicit join guarantees FK -> X_R.
  XsxrConfig cfg;
  cfg.ns = 1000;
  cfg.seed = 31;
  StarSchema star = GenerateXsxr(cfg);
  EXPECT_TRUE(star.Validate().ok());
}

TEST(XsxrTest, DeterministicInSeed) {
  XsxrConfig cfg;
  cfg.seed = 77;
  StarSchema a = GenerateXsxr(cfg);
  StarSchema b = GenerateXsxr(cfg);
  ASSERT_EQ(a.num_facts(), b.num_facts());
  for (size_t i = 0; i < a.num_facts(); ++i) {
    EXPECT_EQ(a.labels()[i], b.labels()[i]);
  }
}

// ------------------------------------------------------------- RepOneXr --

TEST(RepOneXrTest, AllForeignColumnsReplicateXr) {
  RepOneXrConfig cfg;
  cfg.nr = 30;
  cfg.dr = 6;
  cfg.seed = 41;
  StarSchema star = GenerateRepOneXr(cfg);
  const Table& dim = star.dimension(0).table;
  for (size_t r = 0; r < dim.num_rows(); ++r) {
    for (size_t c = 1; c < dim.num_columns(); ++c) {
      EXPECT_EQ(dim.at(r, c), dim.at(r, 0));
    }
  }
}

TEST(RepOneXrTest, ShapeAndLabels) {
  RepOneXrConfig cfg;
  cfg.ns = 5000;
  cfg.p = 0.1;
  cfg.seed = 43;
  StarSchema star = GenerateRepOneXr(cfg);
  EXPECT_EQ(star.num_facts(), 5000u);
  size_t agree = 0;
  for (size_t i = 0; i < star.num_facts(); ++i) {
    const uint32_t xr = star.dimension(0).table.at(star.fk_column(0)[i], 0);
    agree += star.labels()[i] == (xr % 2);
  }
  EXPECT_NEAR(static_cast<double>(agree) / star.num_facts(), 0.1, 0.03);
}

// ------------------------------------------------------------- realworld --

TEST(RealWorldTest, SevenDatasetsInPaperOrder) {
  const auto specs = AllRealWorldSpecs();
  ASSERT_EQ(specs.size(), 7u);
  EXPECT_EQ(specs[0].name, "Expedia");
  EXPECT_EQ(specs[1].name, "Movies");
  EXPECT_EQ(specs[2].name, "Yelp");
  EXPECT_EQ(specs[3].name, "Walmart");
  EXPECT_EQ(specs[4].name, "LastFM");
  EXPECT_EQ(specs[5].name, "Books");
  EXPECT_EQ(specs[6].name, "Flights");
}

TEST(RealWorldTest, SchemaShapesMatchTable1) {
  const auto specs = AllRealWorldSpecs();
  // q per dataset.
  EXPECT_EQ(specs[0].dims.size(), 2u);  // Expedia
  EXPECT_EQ(specs[6].dims.size(), 3u);  // Flights
  // d_S per dataset.
  EXPECT_EQ(specs[0].ds, 1u);
  EXPECT_EQ(specs[1].ds, 0u);
  EXPECT_EQ(specs[6].ds, 20u);
  // d_R of selected dimensions.
  EXPECT_EQ(specs[2].dims[0].dr, 32u);  // Yelp businesses
  EXPECT_EQ(specs[1].dims[1].dr, 21u);  // Movies movies
  // Expedia search FK is open-domain.
  EXPECT_TRUE(specs[0].dims[1].open_domain_fk);
  EXPECT_FALSE(specs[0].dims[0].open_domain_fk);
}

TEST(RealWorldTest, TupleRatiosMatchTable1) {
  // Table 1's ratio convention: 0.5 * n_S / n_R.
  for (const auto& spec : AllRealWorldSpecs()) {
    StarSchema star = GenerateRealWorld(spec);
    ASSERT_TRUE(star.Validate().ok());
    for (size_t i = 0; i < spec.dims.size(); ++i) {
      const double ratio = 0.5 * star.TupleRatio(i);
      if (spec.name == "Yelp" && i == 1) {
        EXPECT_NEAR(ratio, 2.5, 0.3);
      }
      if (spec.name == "LastFM" && i == 1) {
        EXPECT_NEAR(ratio, 3.5, 0.4);
      }
      if (spec.name == "Movies" && i == 1) {
        EXPECT_NEAR(ratio, 135.0, 15.0);
      }
    }
  }
}

TEST(RealWorldTest, GeneratorIsDeterministic) {
  const auto spec = AllRealWorldSpecs()[2];  // Yelp
  StarSchema a = GenerateRealWorld(spec);
  StarSchema b = GenerateRealWorld(spec);
  ASSERT_EQ(a.num_facts(), b.num_facts());
  for (size_t i = 0; i < a.num_facts(); ++i) {
    EXPECT_EQ(a.labels()[i], b.labels()[i]);
  }
}

TEST(RealWorldTest, LabelsAreNotDegenerate) {
  for (const auto& spec : AllRealWorldSpecs()) {
    StarSchema star = GenerateRealWorld(spec);
    size_t pos = 0;
    for (uint8_t y : star.labels()) pos += y;
    const double rate = static_cast<double>(pos) / star.num_facts();
    EXPECT_GT(rate, 0.15) << spec.name;
    EXPECT_LT(rate, 0.85) << spec.name;
  }
}

TEST(RealWorldTest, OpenDomainFkExcludedFromJoin) {
  const auto spec = AllRealWorldSpecs()[0];  // Expedia
  StarSchema star = GenerateRealWorld(spec);
  Result<Dataset> joined =
      JoinAllTables(star, RealWorldJoinOptions(spec));
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().IndexOf("fk_searches"), -1);
  EXPECT_GE(joined.value().IndexOf("fk_hotels"), 0);
}

TEST(RealWorldTest, LookupByName) {
  Result<RealWorldSpec> r = RealWorldSpecByName("yelp");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().name, "Yelp");
  EXPECT_FALSE(RealWorldSpecByName("nope").ok());
}

TEST(RealWorldTest, ScaleMultipliesFactRows) {
  Result<RealWorldSpec> half = RealWorldSpecByName("Movies", 0.5);
  Result<RealWorldSpec> full = RealWorldSpecByName("Movies", 1.0);
  ASSERT_TRUE(half.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(half.value().ns * 2, full.value().ns);
}

}  // namespace
}  // namespace synth
}  // namespace hamlet
