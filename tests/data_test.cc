// Tests for hamlet/data: Dataset, DataView, splits, one-hot map.

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "hamlet/data/code_matrix.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/one_hot.h"
#include "hamlet/data/split.h"
#include "hamlet/data/view.h"
#include "parity_util.h"

namespace hamlet {
namespace {

Dataset MakeDataset() {
  // home(2), fk(5), foreign(3)
  Dataset d({{"h", 2, FeatureRole::kHome, -1},
             {"fk_r", 5, FeatureRole::kForeignKey, 0},
             {"r.x", 3, FeatureRole::kForeign, 0}});
  EXPECT_TRUE(d.AppendRow({0, 4, 2}, 1).ok());
  EXPECT_TRUE(d.AppendRow({1, 0, 0}, 0).ok());
  EXPECT_TRUE(d.AppendRow({1, 2, 1}, 1).ok());
  EXPECT_TRUE(d.AppendRow({0, 3, 2}, 0).ok());
  return d;
}

// --------------------------------------------------------------- Dataset --

TEST(DatasetTest, BasicAccessors) {
  Dataset d = MakeDataset();
  EXPECT_EQ(d.num_rows(), 4u);
  EXPECT_EQ(d.num_features(), 3u);
  EXPECT_EQ(d.feature(0, 1), 4u);
  EXPECT_EQ(d.label(2), 1);
  EXPECT_EQ(d.IndexOf("r.x"), 2);
  EXPECT_EQ(d.IndexOf("nope"), -1);
  EXPECT_EQ(d.OneHotDimension(), 2u + 5u + 3u);
}

TEST(DatasetTest, AppendValidation) {
  Dataset d = MakeDataset();
  EXPECT_FALSE(d.AppendRow({0, 5, 0}, 1).ok());  // fk out of domain
  EXPECT_FALSE(d.AppendRow({0, 0}, 1).ok());     // arity
  EXPECT_FALSE(d.AppendRow({0, 0, 0}, 2).ok());  // label
  EXPECT_EQ(d.num_rows(), 4u);
}

TEST(DatasetTest, ClearRowsKeepsTheSchemaAndAcceptsNewRows) {
  Dataset d = MakeDataset();
  d.ClearRows();
  EXPECT_EQ(d.num_rows(), 0u);
  EXPECT_EQ(d.num_features(), 3u);
  EXPECT_EQ(d.column(1).size(), 0u);
  EXPECT_EQ(d.feature_spec(2).name, "r.x");
  ASSERT_TRUE(d.AppendRow({1, 3, 0}, 1).ok());
  EXPECT_EQ(d.num_rows(), 1u);
  EXPECT_EQ(d.feature(0, 1), 3u);
  EXPECT_EQ(d.label(0), 1);
}

TEST(DatasetTest, RowMajorAppendMatchesRowByRowAppend) {
  // 150 rows: two full transpose tiles and a partial one, appended after
  // an existing row so the block lands at a non-zero offset.
  const std::vector<FeatureSpec> specs = {{"a", 7, FeatureRole::kHome, -1},
                                          {"b", 3, FeatureRole::kHome, -1},
                                          {"c", 11, FeatureRole::kHome, -1}};
  Dataset by_row(specs);
  Dataset by_block(specs);
  ASSERT_TRUE(by_row.AppendRow({6, 2, 10}, 1).ok());
  ASSERT_TRUE(by_block.AppendRow({6, 2, 10}, 1).ok());
  std::vector<uint32_t> block;
  for (uint32_t i = 0; i < 150; ++i) {
    const std::vector<uint32_t> row = {i % 7, (i / 7) % 3, (i * 5) % 11};
    ASSERT_TRUE(by_row.AppendRow(row, 0).ok());
    block.insert(block.end(), row.begin(), row.end());
  }
  by_block.AppendRowMajorUnchecked(block.data(), 150, 0);
  ASSERT_EQ(by_block.num_rows(), by_row.num_rows());
  for (size_t j = 0; j < specs.size(); ++j) {
    EXPECT_EQ(by_block.column(j), by_row.column(j)) << "column " << j;
  }
  EXPECT_EQ(by_block.labels(), by_row.labels());
}

TEST(DatasetTest, RoleNames) {
  EXPECT_STREQ(FeatureRoleName(FeatureRole::kHome), "home");
  EXPECT_STREQ(FeatureRoleName(FeatureRole::kForeignKey), "foreign_key");
  EXPECT_STREQ(FeatureRoleName(FeatureRole::kForeign), "foreign");
}

TEST(DatasetTest, ReplaceColumnChangesDomain) {
  Dataset d = MakeDataset();
  ASSERT_TRUE(d.ReplaceColumn(1, {1, 0, 1, 0}, 2).ok());
  EXPECT_EQ(d.feature_spec(1).domain_size, 2u);
  EXPECT_EQ(d.feature(0, 1), 1u);
}

TEST(DatasetTest, ReplaceColumnValidates) {
  Dataset d = MakeDataset();
  EXPECT_FALSE(d.ReplaceColumn(9, {0, 0, 0, 0}, 2).ok());   // no column
  EXPECT_FALSE(d.ReplaceColumn(1, {0, 0}, 2).ok());          // length
  EXPECT_FALSE(d.ReplaceColumn(1, {2, 0, 0, 0}, 2).ok());    // code range
}

// -------------------------------------------------------------- DataView --

TEST(DataViewTest, FullViewSeesEverything) {
  Dataset d = MakeDataset();
  DataView v(&d);
  EXPECT_EQ(v.num_rows(), 4u);
  EXPECT_EQ(v.num_features(), 3u);
  EXPECT_EQ(v.feature(3, 2), 2u);
  EXPECT_EQ(v.label(3), 0);
}

TEST(DataViewTest, RowAndFeatureSubsets) {
  Dataset d = MakeDataset();
  DataView v(&d, {2, 0}, {1, 2});
  EXPECT_EQ(v.num_rows(), 2u);
  EXPECT_EQ(v.num_features(), 2u);
  // View row 0 = dataset row 2: fk=2, r.x=1.
  EXPECT_EQ(v.feature(0, 0), 2u);
  EXPECT_EQ(v.feature(0, 1), 1u);
  EXPECT_EQ(v.label(0), 1);
  EXPECT_EQ(v.row_id(1), 0u);
  EXPECT_EQ(v.feature_id(0), 1u);
  EXPECT_EQ(v.domain_size(0), 5u);
}

TEST(DataViewTest, ReorderedRowsReadTheirDatasetRows) {
  Dataset d = MakeDataset();
  // A reversed row order: codes and labels follow the dataset rows the
  // view names, not the view indices.
  DataView v(&d, {3, 2, 1, 0}, {0, 1, 2});
  for (size_t i = 0; i < v.num_rows(); ++i) {
    const size_t r = 3 - i;
    EXPECT_EQ(v.row_id(i), r);
    for (size_t j = 0; j < v.num_features(); ++j) {
      EXPECT_EQ(v.feature(i, j), d.feature(r, j));
    }
    EXPECT_EQ(v.label(i), d.label(r));
  }
}

TEST(DataViewTest, WithFeaturesKeepsRows) {
  Dataset d = MakeDataset();
  DataView v(&d, {1, 2}, {0, 1, 2});
  DataView w = v.WithFeatures({2});
  EXPECT_EQ(w.num_rows(), 2u);
  EXPECT_EQ(w.num_features(), 1u);
  EXPECT_EQ(w.feature(0, 0), 0u);  // dataset row 1, column 2
}

TEST(DataViewTest, RowCodesMaterialises) {
  Dataset d = MakeDataset();
  DataView v(&d, {0}, {2, 0});
  EXPECT_EQ(test::RowCodes(v, 0), (std::vector<uint32_t>{2, 0}));
}

TEST(DataViewTest, WithFeaturesRoundTripRestoresOriginalColumns) {
  Dataset d = MakeDataset();
  DataView v(&d, {2, 0}, {0, 1, 2});
  // Narrow to a permuted subset, then restore the original selection:
  // WithFeatures takes underlying dataset column ids, so the round trip
  // must reproduce the original view exactly.
  DataView narrowed = v.WithFeatures({2, 0});
  ASSERT_EQ(narrowed.num_features(), 2u);
  EXPECT_EQ(narrowed.feature_id(0), 2u);
  EXPECT_EQ(narrowed.feature(0, 0), d.feature(2, 2));
  EXPECT_EQ(narrowed.domain_size(0), 3u);

  DataView restored = narrowed.WithFeatures({0, 1, 2});
  ASSERT_EQ(restored.num_features(), v.num_features());
  ASSERT_EQ(restored.num_rows(), v.num_rows());
  for (size_t i = 0; i < v.num_rows(); ++i) {
    EXPECT_EQ(restored.row_id(i), v.row_id(i));
    for (size_t j = 0; j < v.num_features(); ++j) {
      EXPECT_EQ(restored.feature(i, j), v.feature(i, j));
    }
  }
}

TEST(DataViewTest, WithFeaturesComposesWithAReorderedRowSubset) {
  Dataset d = MakeDataset();
  // The row_id/feature_id remapping is what CodeMatrix materialisation
  // depends on.
  DataView w = DataView(&d, {0, 3}, {0, 1, 2}).WithFeatures({2, 1});
  ASSERT_EQ(w.num_rows(), 2u);
  ASSERT_EQ(w.num_features(), 2u);
  EXPECT_EQ(w.row_id(0), 0u);
  EXPECT_EQ(w.row_id(1), 3u);
  EXPECT_EQ(w.feature_id(0), 2u);
  EXPECT_EQ(w.feature_id(1), 1u);
  EXPECT_EQ(w.feature(0, 0), d.feature(0, 2));
  EXPECT_EQ(w.feature(0, 1), d.feature(0, 1));
  EXPECT_EQ(w.feature(1, 0), d.feature(3, 2));
  EXPECT_EQ(w.feature(1, 1), d.feature(3, 1));
}

TEST(DataViewTest, OneHotDimensionOfSubset) {
  Dataset d = MakeDataset();
  DataView v(&d, {0, 1}, {0, 2});
  EXPECT_EQ(v.OneHotDimension(), 2u + 3u);
}

// ----------------------------------------------------------------- Split --

TEST(SplitTest, PartitionIsDisjointAndComplete) {
  TrainValTest s = SplitRows(100, 0.5, 0.25, 42);
  EXPECT_EQ(s.train.size(), 50u);
  EXPECT_EQ(s.val.size(), 25u);
  EXPECT_EQ(s.test.size(), 25u);
  std::set<uint32_t> all;
  for (auto part : {&s.train, &s.val, &s.test}) {
    for (uint32_t id : *part) {
      EXPECT_TRUE(all.insert(id).second) << "duplicate row id " << id;
      EXPECT_LT(id, 100u);
    }
  }
  EXPECT_EQ(all.size(), 100u);
}

TEST(SplitTest, DeterministicInSeed) {
  TrainValTest a = SplitRows(50, 0.5, 0.25, 7);
  TrainValTest b = SplitRows(50, 0.5, 0.25, 7);
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.test, b.test);
  TrainValTest c = SplitRows(50, 0.5, 0.25, 8);
  EXPECT_NE(a.train, c.train);
}

TEST(SplitTest, PaperSplitIs502525) {
  TrainValTest s = SplitPaper(1000, 1);
  EXPECT_EQ(s.train.size(), 500u);
  EXPECT_EQ(s.val.size(), 250u);
  EXPECT_EQ(s.test.size(), 250u);
}

TEST(SplitTest, MakeSplitViewsBindsRowsAndFeatures) {
  Dataset d = MakeDataset();
  TrainValTest s;
  s.train = {0, 1};
  s.val = {2};
  s.test = {3};
  SplitViews views = MakeSplitViews(d, s, {0, 2});
  EXPECT_EQ(views.train.num_rows(), 2u);
  EXPECT_EQ(views.val.num_rows(), 1u);
  EXPECT_EQ(views.test.num_rows(), 1u);
  EXPECT_EQ(views.train.num_features(), 2u);
  EXPECT_EQ(views.test.feature(0, 1), 2u);
}

// ---------------------------------------------------------------- OneHot --

TEST(OneHotTest, OffsetsAreCumulative) {
  Dataset d = MakeDataset();
  DataView v(&d);
  OneHotMap map(v);
  EXPECT_EQ(map.dimension(), 10u);
  EXPECT_EQ(map.UnitIndex(0, 1), 1u);
  EXPECT_EQ(map.UnitIndex(1, 0), 2u);
  EXPECT_EQ(map.UnitIndex(2, 2), 9u);
}

TEST(OneHotTest, ActiveUnitsOnePerFeature) {
  Dataset d = MakeDataset();
  DataView v(&d);
  OneHotMap map(v);
  std::vector<uint32_t> active;
  // Row 0: h=0, fk=4, r.x=2.
  map.ActiveUnitsFromCodes(test::RowCodes(v, 0).data(), active);
  EXPECT_EQ(active, (std::vector<uint32_t>{0, 6, 9}));
}

TEST(OneHotTest, RespectsFeatureSubset) {
  Dataset d = MakeDataset();
  DataView v(&d, {0, 1, 2, 3}, {2});  // only the foreign feature
  OneHotMap map(v);
  EXPECT_EQ(map.dimension(), 3u);
  std::vector<uint32_t> active;
  // Row 2: r.x = 1.
  map.ActiveUnitsFromCodes(test::RowCodes(v, 2).data(), active);
  EXPECT_EQ(active, (std::vector<uint32_t>{1}));
}

TEST(OneHotTest, ActiveUnitsFromCodesAgreeAcrossRowSources) {
  // A CodeMatrix row and test::RowCodes of the same view row give
  // the same units, offsets_[j] + feature(i, j), on a reordered subset.
  Dataset d = MakeDataset();
  DataView v(&d, {3, 1, 2}, {2, 0});
  OneHotMap map(v);
  const CodeMatrix codes(v);
  std::vector<uint32_t> from_matrix(7, 99), from_view;
  for (size_t i = 0; i < v.num_rows(); ++i) {
    map.ActiveUnitsFromCodes(codes.row(i), from_matrix);
    map.ActiveUnitsFromCodes(test::RowCodes(v, i).data(), from_view);
    std::vector<uint32_t> expected;
    for (size_t j = 0; j < v.num_features(); ++j) {
      expected.push_back(map.UnitIndex(j, v.feature(i, j)));
    }
    EXPECT_EQ(from_matrix, expected) << "row " << i;
    EXPECT_EQ(from_view, expected) << "row " << i;
  }
}

TEST(OneHotTest, DistancePropertyMatchesMismatchCount) {
  // ||u(a)-u(b)||^2 = 2 * #mismatches — the identity the SVM kernels use.
  Dataset d = MakeDataset();
  DataView v(&d);
  OneHotMap map(v);
  std::vector<uint32_t> a, b;
  map.ActiveUnitsFromCodes(test::RowCodes(v, 0).data(), a);
  map.ActiveUnitsFromCodes(test::RowCodes(v, 1).data(), b);
  size_t mismatches = 0;
  for (size_t j = 0; j < v.num_features(); ++j) {
    mismatches += v.feature(0, j) != v.feature(1, j);
  }
  // One-hot squared distance: count units active in exactly one row.
  std::set<uint32_t> sa(a.begin(), a.end()), sb(b.begin(), b.end());
  size_t sym_diff = 0;
  for (uint32_t u : sa) sym_diff += sb.count(u) == 0;
  for (uint32_t u : sb) sym_diff += sa.count(u) == 0;
  EXPECT_EQ(sym_diff, 2 * mismatches);
}

}  // namespace
}  // namespace hamlet
