// Tests for hamlet/core/variants: JoinAll/NoJoin/NoFK feature selection.

#include <gtest/gtest.h>

#include "hamlet/core/variants.h"
#include "hamlet/data/dataset.h"

namespace hamlet {
namespace core {
namespace {

Dataset MakeJoined() {
  // Layout mirrors JoinAllTables output for q=2:
  // [home, fk0, fk1, dim0 foreign x2, dim1 foreign x1]
  return Dataset({{"h", 2, FeatureRole::kHome, -1},
                  {"fk_a", 10, FeatureRole::kForeignKey, 0},
                  {"fk_b", 20, FeatureRole::kForeignKey, 1},
                  {"a.x", 3, FeatureRole::kForeign, 0},
                  {"a.y", 3, FeatureRole::kForeign, 0},
                  {"b.z", 4, FeatureRole::kForeign, 1}});
}

TEST(VariantsTest, JoinAllKeepsEverything) {
  Dataset d = MakeJoined();
  EXPECT_EQ(SelectVariant(d, FeatureVariant::kJoinAll),
            (std::vector<uint32_t>{0, 1, 2, 3, 4, 5}));
}

TEST(VariantsTest, NoJoinDropsAllForeignFeatures) {
  Dataset d = MakeJoined();
  EXPECT_EQ(SelectVariant(d, FeatureVariant::kNoJoin),
            (std::vector<uint32_t>{0, 1, 2}));
}

TEST(VariantsTest, NoFkDropsAllForeignKeys) {
  Dataset d = MakeJoined();
  EXPECT_EQ(SelectVariant(d, FeatureVariant::kNoFK),
            (std::vector<uint32_t>{0, 3, 4, 5}));
}

TEST(VariantsTest, DropSingleDimensionKeepsItsFk) {
  Dataset d = MakeJoined();
  // NoR1 (drop dim 0's foreign features): the Table 4 variant.
  EXPECT_EQ(SelectDroppingDimensions(d, {0}),
            (std::vector<uint32_t>{0, 1, 2, 5}));
  // NoR2.
  EXPECT_EQ(SelectDroppingDimensions(d, {1}),
            (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  // Dropping both == NoJoin.
  EXPECT_EQ(SelectDroppingDimensions(d, {0, 1}),
            SelectVariant(d, FeatureVariant::kNoJoin));
  // Dropping none == JoinAll.
  EXPECT_EQ(SelectDroppingDimensions(d, {}),
            SelectVariant(d, FeatureVariant::kJoinAll));
}

TEST(VariantsTest, DroppingAnUnknownDimensionKeepsEverything) {
  // No foreign feature is tagged with dimension 7, and the home feature's
  // -1 tag never drops it; a known dimension beside an unknown one still
  // drops only its own features.
  Dataset d = MakeJoined();
  EXPECT_EQ(SelectDroppingDimensions(d, {7}),
            SelectVariant(d, FeatureVariant::kJoinAll));
  EXPECT_EQ(SelectDroppingDimensions(d, {-1}),
            SelectVariant(d, FeatureVariant::kJoinAll));
  EXPECT_EQ(SelectDroppingDimensions(d, {7, 1}),
            SelectDroppingDimensions(d, {1}));
}

TEST(VariantsTest, HelperColumnSelectors) {
  Dataset d = MakeJoined();
  EXPECT_EQ(ForeignKeyColumns(d), (std::vector<uint32_t>{1, 2}));
}

TEST(VariantsTest, Names) {
  EXPECT_STREQ(FeatureVariantName(FeatureVariant::kJoinAll), "JoinAll");
  EXPECT_STREQ(FeatureVariantName(FeatureVariant::kNoJoin), "NoJoin");
  EXPECT_STREQ(FeatureVariantName(FeatureVariant::kNoFK), "NoFK");
}

TEST(VariantsTest, NoJoinNeverSelectsForeignRole) {
  // Property over all three variants: selected roles must honour the
  // variant's contract.
  Dataset d = MakeJoined();
  for (uint32_t c : SelectVariant(d, FeatureVariant::kNoJoin)) {
    EXPECT_NE(d.feature_spec(c).role, FeatureRole::kForeign);
  }
  for (uint32_t c : SelectVariant(d, FeatureVariant::kNoFK)) {
    EXPECT_NE(d.feature_spec(c).role, FeatureRole::kForeignKey);
  }
}

}  // namespace
}  // namespace core
}  // namespace hamlet
