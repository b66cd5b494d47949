// Parameterised property sweeps over the three simulation generators:
// invariants that must hold for every configuration, not just the bench
// defaults — the FD FK -> X_R in the joined output, label-noise
// calibration, shape bookkeeping, and dim_seed/seed separation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include "hamlet/relational/join.h"
#include "hamlet/synth/onexr.h"
#include "hamlet/synth/reponexr.h"
#include "hamlet/synth/xsxr.h"

namespace hamlet {
namespace synth {
namespace {

/// Checks FK -> X_R in a joined dataset: rows agreeing on an FK column
/// agree on every foreign feature of that FK's dimension.
void ExpectFunctionalDependency(const Dataset& t) {
  for (uint32_t fk_col = 0; fk_col < t.num_features(); ++fk_col) {
    if (t.feature_spec(fk_col).role != FeatureRole::kForeignKey) continue;
    const int dim = t.feature_spec(fk_col).dim_index;
    std::map<uint32_t, std::vector<uint32_t>> seen;  // fk -> foreign codes
    for (size_t r = 0; r < t.num_rows(); ++r) {
      std::vector<uint32_t> foreign;
      for (uint32_t c = 0; c < t.num_features(); ++c) {
        if (t.feature_spec(c).role == FeatureRole::kForeign &&
            t.feature_spec(c).dim_index == dim) {
          foreign.push_back(t.feature(r, c));
        }
      }
      auto [it, inserted] = seen.emplace(t.feature(r, fk_col), foreign);
      if (!inserted) {
        ASSERT_EQ(it->second, foreign)
            << "FD violated for FK column " << fk_col << " at row " << r;
      }
    }
  }
}

// ------------------------------------------------------------- OneXr ----

struct OneXrParam {
  size_t ns, nr, ds, dr;
  double p;
  FkSkew skew;
  double skew_param;
};

/// `v` as a test-name fragment: 0.3 -> "0_3" (names allow [A-Za-z0-9_]).
std::string NameFragment(double v) {
  std::ostringstream os;
  os << v;
  std::string s = os.str();
  std::replace(s.begin(), s.end(), '.', '_');
  return s;
}

/// Prints a case as a name built from its fields, e.g.
/// "ns2000_nr40_ds4_dr4_p0_3_zipf2". gtest_discover_tests puts the printed
/// parameter in the ctest name; gtest's default prints a struct's bytes,
/// padding included, which differ from build to build.
void PrintTo(const OneXrParam& q, std::ostream* os) {
  *os << "ns" << q.ns << "_nr" << q.nr << "_ds" << q.ds << "_dr" << q.dr
      << "_p" << NameFragment(q.p) << "_";
  switch (q.skew) {
    case FkSkew::kUniform:
      *os << "uniform";
      break;
    case FkSkew::kZipf:
      *os << "zipf" << NameFragment(q.skew_param);
      break;
    case FkSkew::kNeedleThread:
      *os << "needle" << NameFragment(q.skew_param);
      break;
  }
}

class OneXrPropertyTest : public ::testing::TestWithParam<OneXrParam> {};

TEST_P(OneXrPropertyTest, JoinedOutputSatisfiesFd) {
  const OneXrParam q = GetParam();
  OneXrConfig cfg;
  cfg.ns = q.ns;
  cfg.nr = q.nr;
  cfg.ds = q.ds;
  cfg.dr = q.dr;
  cfg.p = q.p;
  cfg.skew = q.skew;
  cfg.skew_param = q.skew_param;
  cfg.seed = 91;
  StarSchema star = GenerateOneXr(cfg);
  ASSERT_TRUE(star.Validate().ok());
  Result<Dataset> joined = JoinAllTables(star);
  ASSERT_TRUE(joined.ok());
  ExpectFunctionalDependency(joined.value());
}

TEST_P(OneXrPropertyTest, LabelNoiseIsCalibrated) {
  const OneXrParam q = GetParam();
  if (q.ns < 2000) GTEST_SKIP() << "needs enough rows for a tight CI";
  OneXrConfig cfg;
  cfg.ns = q.ns;
  cfg.nr = q.nr;
  cfg.ds = q.ds;
  cfg.dr = q.dr;
  cfg.p = q.p;
  cfg.skew = q.skew;
  cfg.skew_param = q.skew_param;
  cfg.seed = 92;
  StarSchema star = GenerateOneXr(cfg);
  size_t agree = 0;
  for (size_t i = 0; i < star.num_facts(); ++i) {
    const uint32_t xr = star.dimension(0).table.at(star.fk_column(0)[i], 0);
    agree += star.labels()[i] == (xr % 2);
  }
  EXPECT_NEAR(static_cast<double>(agree) / star.num_facts(), q.p, 0.03);
}

TEST_P(OneXrPropertyTest, DimSeedIsolatesTrueDistribution) {
  // Same dim_seed + different fact seeds -> identical dimension table;
  // this is what makes the Monte-Carlo harness sound.
  const OneXrParam q = GetParam();
  OneXrConfig a;
  a.ns = q.ns;
  a.nr = q.nr;
  a.ds = q.ds;
  a.dr = q.dr;
  a.skew = q.skew;
  a.skew_param = q.skew_param;
  a.seed = 1;
  OneXrConfig b = a;
  b.seed = 2;
  StarSchema sa = GenerateOneXr(a);
  StarSchema sb = GenerateOneXr(b);
  ASSERT_EQ(sa.dimension(0).table.num_rows(),
            sb.dimension(0).table.num_rows());
  for (size_t r = 0; r < sa.dimension(0).table.num_rows(); ++r) {
    EXPECT_EQ(sa.dimension(0).table.Row(r), sb.dimension(0).table.Row(r));
  }
  // And the fact rows must actually differ (different sampling stream).
  bool any_diff = false;
  for (size_t i = 0; i < sa.num_facts() && !any_diff; ++i) {
    any_diff = sa.fk_column(0)[i] != sb.fk_column(0)[i];
  }
  EXPECT_TRUE(any_diff);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, OneXrPropertyTest,
    ::testing::Values(
        OneXrParam{500, 10, 1, 1, 0.1, FkSkew::kUniform, 0.0},
        OneXrParam{2000, 40, 4, 4, 0.1, FkSkew::kUniform, 0.0},
        OneXrParam{2000, 40, 4, 4, 0.3, FkSkew::kUniform, 0.0},
        OneXrParam{2000, 100, 2, 6, 0.1, FkSkew::kZipf, 2.0},
        OneXrParam{2000, 40, 4, 4, 0.1, FkSkew::kZipf, 4.0},
        OneXrParam{2000, 40, 4, 4, 0.1, FkSkew::kNeedleThread, 0.5},
        OneXrParam{2000, 25, 0, 3, 0.2, FkSkew::kNeedleThread, 0.9},
        OneXrParam{500, 500, 4, 4, 0.1, FkSkew::kUniform, 0.0}));

// ------------------------------------------------------------- XSXR -----

class XsxrPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(XsxrPropertyTest, FdAndDeterminismAcrossShapes) {
  const auto [nr, ds, dr] = GetParam();
  XsxrConfig cfg;
  cfg.ns = 600;
  cfg.nr = nr;
  cfg.ds = ds;
  cfg.dr = dr;
  cfg.seed = 93;
  StarSchema star = GenerateXsxr(cfg);
  ASSERT_TRUE(star.Validate().ok());
  Result<Dataset> joined = JoinAllTables(star);
  ASSERT_TRUE(joined.ok());
  ExpectFunctionalDependency(joined.value());

  // H(Y | X_S, X_R) = 0 must hold for every shape.
  const Dataset& t = joined.value();
  std::map<std::vector<uint32_t>, uint8_t> label_of;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<uint32_t> key;
    for (uint32_t c = 0; c < t.num_features(); ++c) {
      if (t.feature_spec(c).role != FeatureRole::kForeignKey) {
        key.push_back(t.feature(r, c));
      }
    }
    auto [it, inserted] = label_of.emplace(key, t.label(r));
    if (!inserted) {
      ASSERT_EQ(it->second, t.label(r));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, XsxrPropertyTest,
    ::testing::Values(std::make_tuple(10, 1, 1), std::make_tuple(40, 4, 4),
                      std::make_tuple(40, 2, 8), std::make_tuple(40, 8, 2),
                      std::make_tuple(200, 4, 4),
                      std::make_tuple(40, 0, 4)));

// --------------------------------------------------------- RepOneXr -----

class RepOneXrPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RepOneXrPropertyTest, ReplicationHoldsForEveryWidth) {
  RepOneXrConfig cfg;
  cfg.nr = 60;
  cfg.dr = GetParam();
  cfg.seed = 94;
  StarSchema star = GenerateRepOneXr(cfg);
  ASSERT_TRUE(star.Validate().ok());
  const Table& dim = star.dimension(0).table;
  ASSERT_EQ(dim.num_columns(), GetParam());
  for (size_t r = 0; r < dim.num_rows(); ++r) {
    for (size_t c = 1; c < dim.num_columns(); ++c) {
      ASSERT_EQ(dim.at(r, c), dim.at(r, 0));
    }
  }
  Result<Dataset> joined = JoinAllTables(star);
  ASSERT_TRUE(joined.ok());
  ExpectFunctionalDependency(joined.value());
}

INSTANTIATE_TEST_SUITE_P(WidthSweep, RepOneXrPropertyTest,
                         ::testing::Values(1, 2, 6, 11, 16));

}  // namespace
}  // namespace synth
}  // namespace hamlet
