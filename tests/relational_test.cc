// Tests for hamlet/relational: schema, table, star schema, KFK join, CSV.

#include <gtest/gtest.h>

#include <set>

#include "hamlet/common/rng.h"
#include "hamlet/relational/csv.h"
#include "hamlet/relational/join.h"
#include "hamlet/relational/schema.h"
#include "hamlet/relational/star_schema.h"
#include "hamlet/relational/table.h"

namespace hamlet {
namespace {

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, AddAndLookup) {
  TableSchema schema;
  ASSERT_TRUE(schema.AddColumn({"a", 4}).ok());
  ASSERT_TRUE(schema.AddColumn({"b", 2}).ok());
  EXPECT_EQ(schema.num_columns(), 2u);
  EXPECT_EQ(schema.IndexOf("a"), 0);
  EXPECT_EQ(schema.IndexOf("b"), 1);
  EXPECT_EQ(schema.IndexOf("c"), -1);
}

TEST(SchemaTest, RejectsDuplicateName) {
  TableSchema schema;
  ASSERT_TRUE(schema.AddColumn({"a", 4}).ok());
  EXPECT_FALSE(schema.AddColumn({"a", 2}).ok());
}

TEST(SchemaTest, RejectsZeroDomain) {
  TableSchema schema;
  EXPECT_FALSE(schema.AddColumn({"z", 0}).ok());
}

TEST(SchemaTest, ValidateRowChecksArityAndDomain) {
  TableSchema schema({{"a", 4}, {"b", 2}});
  EXPECT_TRUE(schema.ValidateRow({3, 1}).ok());
  EXPECT_FALSE(schema.ValidateRow({3}).ok());
  EXPECT_FALSE(schema.ValidateRow({4, 0}).ok());
  EXPECT_EQ(schema.ValidateRow({4, 0}).code(), StatusCode::kOutOfRange);
}

TEST(SchemaTest, Equality) {
  TableSchema a({{"x", 2}});
  TableSchema b({{"x", 2}});
  TableSchema c({{"x", 3}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, AppendAndRead) {
  Table t(TableSchema({{"a", 4}, {"b", 2}}));
  ASSERT_TRUE(t.AppendRow({1, 0}).ok());
  ASSERT_TRUE(t.AppendRow({3, 1}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.at(0, 0), 1u);
  EXPECT_EQ(t.at(1, 1), 1u);
  EXPECT_EQ(t.Row(1), (std::vector<uint32_t>{3, 1}));
  EXPECT_EQ(t.column(0), (std::vector<uint32_t>{1, 3}));
}

TEST(TableTest, AppendRejectsOutOfDomain) {
  Table t(TableSchema({{"a", 2}}));
  EXPECT_FALSE(t.AppendRow({2}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

// ------------------------------------------------------------ StarSchema --

StarSchema MakeTinyStar() {
  // Fact: 1 home feature; one dimension "emp" with 2 foreign features.
  Table emp(TableSchema({{"state", 3}, {"rich", 2}}));
  emp.AppendRowUnchecked({0, 1});
  emp.AppendRowUnchecked({1, 0});
  emp.AppendRowUnchecked({2, 1});

  StarSchema star{Table(TableSchema({{"gender", 2}}))};
  star.AddDimension("emp", std::move(emp));
  EXPECT_TRUE(star.AppendFact({0}, {2}, 1).ok());
  EXPECT_TRUE(star.AppendFact({1}, {0}, 0).ok());
  EXPECT_TRUE(star.AppendFact({1}, {2}, 1).ok());
  EXPECT_TRUE(star.AppendFact({0}, {1}, 0).ok());
  return star;
}

TEST(StarSchemaTest, BasicAccounting) {
  StarSchema star = MakeTinyStar();
  EXPECT_EQ(star.num_facts(), 4u);
  EXPECT_EQ(star.num_dimensions(), 1u);
  EXPECT_TRUE(star.Validate().ok());
  EXPECT_DOUBLE_EQ(star.TupleRatio(0), 4.0 / 3.0);
}

TEST(StarSchemaTest, RejectsDanglingFk) {
  StarSchema star = MakeTinyStar();
  EXPECT_FALSE(star.AppendFact({0}, {3}, 1).ok());
}

TEST(StarSchemaTest, RejectsNonBinaryLabel) {
  StarSchema star = MakeTinyStar();
  EXPECT_FALSE(star.AppendFact({0}, {0}, 2).ok());
}

TEST(StarSchemaTest, RejectsWrongFkArity) {
  StarSchema star = MakeTinyStar();
  EXPECT_FALSE(star.AppendFact({0}, {}, 1).ok());
  EXPECT_FALSE(star.AppendFact({0}, {0, 0}, 1).ok());
}

// ------------------------------------------------------------------ Join --

TEST(JoinTest, SchemaOrderAndRoles) {
  StarSchema star = MakeTinyStar();
  Result<Dataset> joined = JoinAllTables(star);
  ASSERT_TRUE(joined.ok());
  const Dataset& t = joined.value();
  ASSERT_EQ(t.num_features(), 4u);  // gender, fk_emp, emp.state, emp.rich
  EXPECT_EQ(t.feature_spec(0).name, "gender");
  EXPECT_EQ(t.feature_spec(0).role, FeatureRole::kHome);
  EXPECT_EQ(t.feature_spec(1).name, "fk_emp");
  EXPECT_EQ(t.feature_spec(1).role, FeatureRole::kForeignKey);
  EXPECT_EQ(t.feature_spec(1).domain_size, 3u);  // |D_FK| = n_R
  EXPECT_EQ(t.feature_spec(2).name, "emp.state");
  EXPECT_EQ(t.feature_spec(2).role, FeatureRole::kForeign);
  EXPECT_EQ(t.feature_spec(2).dim_index, 0);
  EXPECT_EQ(t.feature_spec(3).name, "emp.rich");
}

TEST(JoinTest, GathersForeignFeaturesByFk) {
  StarSchema star = MakeTinyStar();
  Result<Dataset> joined = JoinAllTables(star);
  ASSERT_TRUE(joined.ok());
  const Dataset& t = joined.value();
  ASSERT_EQ(t.num_rows(), 4u);
  // Row 0: fk=2 -> emp row 2 = (state=2, rich=1).
  EXPECT_EQ(t.feature(0, 1), 2u);
  EXPECT_EQ(t.feature(0, 2), 2u);
  EXPECT_EQ(t.feature(0, 3), 1u);
  // Row 1: fk=0 -> (0, 1).
  EXPECT_EQ(t.feature(1, 2), 0u);
  EXPECT_EQ(t.feature(1, 3), 1u);
  EXPECT_EQ(t.label(0), 1);
  EXPECT_EQ(t.label(1), 0);
}

TEST(JoinTest, JoinPreservesFunctionalDependencyFkToXr) {
  // Property: in the joined output, rows agreeing on FK agree on all of
  // that dimension's foreign features (the FD the paper exploits).
  Rng rng(99);
  Table dim(TableSchema({{"x0", 4}, {"x1", 3}}));
  for (int r = 0; r < 10; ++r) {
    dim.AppendRowUnchecked({static_cast<uint32_t>(rng.UniformInt(4)),
                            static_cast<uint32_t>(rng.UniformInt(3))});
  }
  StarSchema star{Table(TableSchema({{"h", 2}}))};
  star.AddDimension("d", std::move(dim));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(star.AppendFact({static_cast<uint32_t>(rng.UniformInt(2))},
                                {static_cast<uint32_t>(rng.UniformInt(10))},
                                static_cast<uint8_t>(rng.UniformInt(2)))
                    .ok());
  }
  Result<Dataset> joined = JoinAllTables(star);
  ASSERT_TRUE(joined.ok());
  const Dataset& t = joined.value();
  // fk column = 1; foreign columns = 2, 3.
  std::vector<int> seen_x0(10, -1), seen_x1(10, -1);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const uint32_t fk = t.feature(r, 1);
    if (seen_x0[fk] < 0) {
      seen_x0[fk] = static_cast<int>(t.feature(r, 2));
      seen_x1[fk] = static_cast<int>(t.feature(r, 3));
    } else {
      EXPECT_EQ(seen_x0[fk], static_cast<int>(t.feature(r, 2)));
      EXPECT_EQ(seen_x1[fk], static_cast<int>(t.feature(r, 3)));
    }
  }
}

TEST(JoinTest, OpenDomainFkIsExcludedButFeaturesJoined) {
  StarSchema star = MakeTinyStar();
  JoinOptions opts;
  opts.open_domain_fks = {0};
  Result<Dataset> joined = JoinAllTables(star, opts);
  ASSERT_TRUE(joined.ok());
  const Dataset& t = joined.value();
  ASSERT_EQ(t.num_features(), 3u);  // gender, emp.state, emp.rich
  EXPECT_EQ(t.IndexOf("fk_emp"), -1);
  EXPECT_GE(t.IndexOf("emp.state"), 0);
}

TEST(JoinTest, IncludeFksFalseDropsAllFks) {
  StarSchema star = MakeTinyStar();
  JoinOptions opts;
  opts.include_fks = false;
  Result<Dataset> joined = JoinAllTables(star, opts);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().IndexOf("fk_emp"), -1);
}

TEST(JoinTest, FailsOnEmptyDimension) {
  StarSchema star{Table(TableSchema({{"h", 2}}))};
  star.AddDimension("empty", Table(TableSchema({{"x", 2}})));
  Result<Dataset> joined = JoinAllTables(star);
  EXPECT_FALSE(joined.ok());
}

// ------------------------------------------------------------------- CSV --

TEST(CsvTest, ReadBuildsDictionaries) {
  const std::string text =
      "city,size\n"
      "sd,small\n"
      "la,big\n"
      "sd,big\n";
  Result<CsvTable> r = ReadCsv(text);
  ASSERT_TRUE(r.ok());
  const CsvTable& csv = r.value();
  EXPECT_EQ(csv.table.num_rows(), 3u);
  EXPECT_EQ(csv.table.schema().column(0).name, "city");
  EXPECT_EQ(csv.table.schema().column(0).domain_size, 2u);
  EXPECT_EQ(csv.dictionaries[0][0], "sd");
  EXPECT_EQ(csv.dictionaries[0][1], "la");
  EXPECT_EQ(csv.table.at(2, 0), 0u);  // third row city = "sd" -> code 0
  EXPECT_EQ(csv.table.at(2, 1), 1u);  // "big" -> code 1
}

TEST(CsvTest, ReadRejectsRaggedRows) {
  EXPECT_FALSE(ReadCsv("a,b\n1\n").ok());
}

TEST(CsvTest, ReadRejectsEmpty) {
  EXPECT_FALSE(ReadCsv("").ok());
}

}  // namespace
}  // namespace hamlet
