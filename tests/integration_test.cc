// Cross-cutting integration and property tests: kernel/one-hot identities,
// SMO KKT conditions, open-domain FK variant rules, CSV-to-model pipeline,
// and full-effort grid smoke.

#include <gtest/gtest.h>

#include <cmath>

#include "hamlet/common/rng.h"
#include "hamlet/core/experiment.h"
#include "hamlet/core/variants.h"
#include "hamlet/data/one_hot.h"
#include "hamlet/ml/metrics.h"
#include "hamlet/ml/svm/kernel.h"
#include "hamlet/ml/svm/smo.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "hamlet/relational/csv.h"
#include "hamlet/relational/join.h"
#include "hamlet/synth/onexr.h"
#include "gram_source.h"
#include "parity_util.h"

namespace hamlet {
namespace {

// ------------------------------------------ kernel / one-hot identities --

TEST(KernelIdentityTest, LinearKernelEqualsOneHotDotOverD) {
  // Property: KernelEval(linear) == <u(a), u(b)> / d where u is the
  // explicit one-hot embedding. Checked on random rows.
  Rng rng(1);
  const size_t d = 6;
  std::vector<FeatureSpec> specs;
  for (size_t j = 0; j < d; ++j) {
    specs.push_back({"f" + std::to_string(j),
                     static_cast<uint32_t>(2 + j), FeatureRole::kHome, -1});
  }
  Dataset data(specs);
  for (int i = 0; i < 30; ++i) {
    std::vector<uint32_t> row(d);
    for (size_t j = 0; j < d; ++j) {
      row[j] = static_cast<uint32_t>(rng.UniformInt(2 + j));
    }
    data.AppendRowUnchecked(row, 0);
  }
  DataView view(&data);
  OneHotMap map(view);
  ml::KernelConfig lin{ml::KernelType::kLinear, 0.0, 2};
  ml::KernelConfig rbf{ml::KernelType::kRbf, 0.37, 2};

  std::vector<uint32_t> ua, ub;
  for (size_t a = 0; a < view.num_rows(); ++a) {
    for (size_t b = 0; b < view.num_rows(); ++b) {
      const std::vector<uint32_t> ra = test::RowCodes(view, a);
      const std::vector<uint32_t> rb = test::RowCodes(view, b);
      // Explicit one-hot dot product: count shared active units.
      map.ActiveUnitsFromCodes(ra.data(), ua);
      map.ActiveUnitsFromCodes(rb.data(), ub);
      size_t dot = 0;
      for (size_t j = 0; j < d; ++j) dot += ua[j] == ub[j];
      EXPECT_DOUBLE_EQ(ml::KernelEval(lin, ra.data(), rb.data(), d),
                       static_cast<double>(dot) / static_cast<double>(d));
      // RBF exponent: squared distance = 2 * (d - dot).
      const double expected =
          std::exp(-0.37 * 2.0 * static_cast<double>(d - dot));
      EXPECT_NEAR(ml::KernelEval(rbf, ra.data(), rb.data(), d), expected,
                  1e-12);
    }
  }
}

// --------------------------------------------------- SMO KKT conditions --

TEST(SmoKktTest, ConvergedSolutionSatisfiesKkt) {
  // Property: at convergence, every point satisfies the C-SVC KKT
  // conditions within tolerance:
  //   alpha=0   -> y f(x) >= 1 - tol
  //   0<alpha<C -> |y f(x) - 1| <= tol
  //   alpha=C   -> y f(x) <= 1 + tol
  Rng rng(7);
  const size_t n = 80, d = 5;
  std::vector<uint32_t> rows(n * d);
  for (auto& v : rows) v = static_cast<uint32_t>(rng.UniformInt(3));
  std::vector<int8_t> y(n);
  for (auto& v : y) v = rng.Bernoulli(0.5) ? 1 : -1;
  ml::KernelConfig kc{ml::KernelType::kRbf, 0.4, 2};
  const std::vector<float> gram = test::ComputeGram(kc, rows, n, d);

  ml::SmoConfig cfg;
  cfg.C = 3.0;
  cfg.tolerance = 1e-3;
  cfg.max_iterations = 200000;
  Result<ml::SmoSolution> sol = test::SolveSmo(gram, y, cfg);
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol.value().converged);

  const double kkt_slack = 10 * cfg.tolerance;  // selection tol != KKT tol
  for (size_t i = 0; i < n; ++i) {
    double f = sol.value().bias;
    for (size_t j = 0; j < n; ++j) {
      f += sol.value().alpha[j] * y[j] * gram[i * n + j];
    }
    const double margin = y[i] * f;
    const double a = sol.value().alpha[i];
    if (a <= 1e-9) {
      EXPECT_GE(margin, 1.0 - kkt_slack) << "free point " << i;
    } else if (a >= cfg.C - 1e-9) {
      EXPECT_LE(margin, 1.0 + kkt_slack) << "bound point " << i;
    } else {
      EXPECT_NEAR(margin, 1.0, kkt_slack) << "sv " << i;
    }
  }
}

// ------------------------------------------- open-domain FK variant rule --

TEST(OpenDomainVariantTest, NoJoinKeepsUnavoidableForeignFeatures) {
  // A dimension whose FK is open-domain has no FK column in the join
  // output; the paper says such a table "can never be discarded", so
  // NoJoin must keep its foreign features while dropping the others'.
  Table d0(TableSchema({{"a", 2}}));
  d0.AppendRowUnchecked({0});
  Table d1(TableSchema({{"b", 2}, {"c", 3}}));
  d1.AppendRowUnchecked({0, 2});
  StarSchema star{Table(TableSchema({{"h", 2}}))};
  star.AddDimension("closed", std::move(d0));
  star.AddDimension("open", std::move(d1));
  ASSERT_TRUE(star.AppendFact({1}, {0, 0}, 1).ok());

  JoinOptions opts;
  opts.open_domain_fks = {1};
  Result<Dataset> joined = JoinAllTables(star, opts);
  ASSERT_TRUE(joined.ok());
  const Dataset& t = joined.value();

  const auto nojoin = core::SelectVariant(t, core::FeatureVariant::kNoJoin);
  // Expected: h, fk_closed, open.b, open.c — but NOT closed.a.
  std::vector<std::string> names;
  for (uint32_t c : nojoin) names.push_back(t.feature_spec(c).name);
  EXPECT_EQ(names, (std::vector<std::string>{"h", "fk_closed", "open.b",
                                             "open.c"}));

  // NoFK still keeps every foreign feature and no FK.
  const auto nofk = core::SelectVariant(t, core::FeatureVariant::kNoFK);
  names.clear();
  for (uint32_t c : nofk) names.push_back(t.feature_spec(c).name);
  EXPECT_EQ(names, (std::vector<std::string>{"h", "closed.a", "open.b",
                                             "open.c"}));
}

// ----------------------------------------------- CSV -> model pipeline --

TEST(PipelineTest, CsvToTreeEndToEnd) {
  // Ingest a labeled fact CSV, build the dataset by hand, train, predict.
  const std::string csv_text =
      "color,size,label\n"
      "red,small,1\n"
      "red,big,1\n"
      "blue,small,0\n"
      "blue,big,0\n"
      "red,small,1\n"
      "blue,big,0\n";
  Result<CsvTable> csv = ReadCsv(csv_text);
  ASSERT_TRUE(csv.ok());
  const Table& table = csv.value().table;
  const int label_col = table.schema().IndexOf("label");
  ASSERT_GE(label_col, 0);

  std::vector<FeatureSpec> specs;
  std::vector<size_t> feature_cols;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (static_cast<int>(c) == label_col) continue;
    specs.push_back({table.schema().column(c).name,
                     table.schema().column(c).domain_size,
                     FeatureRole::kHome, -1});
    feature_cols.push_back(c);
  }
  Dataset data(specs);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<uint32_t> row;
    for (size_t c : feature_cols) row.push_back(table.at(r, c));
    // The CSV dictionary maps "1" and "0" to codes in first-seen order.
    const std::string& label_str =
        csv.value().dictionaries[static_cast<size_t>(label_col)]
                                [table.at(r, static_cast<size_t>(label_col))];
    data.AppendRowUnchecked(row, label_str == "1" ? 1 : 0);
  }

  ml::DecisionTree tree({.minsplit = 1, .cp = 0.0});
  ASSERT_TRUE(tree.Fit(DataView(&data)).ok());
  EXPECT_DOUBLE_EQ(ml::Accuracy(tree, DataView(&data)), 1.0);
}

// ------------------------------------------------- full-effort grid smoke --

TEST(FullEffortTest, TreeGridRunsEndToEnd) {
  synth::OneXrConfig cfg;
  cfg.ns = 300;
  cfg.nr = 15;
  cfg.seed = 5;
  StarSchema star = synth::GenerateOneXr(cfg);
  Result<core::PreparedData> prepared = core::Prepare(star, 6);
  ASSERT_TRUE(prepared.ok());
  // Full effort = the paper's 4x5 grid; on 300 rows this stays fast.
  Result<core::VariantResult> r =
      core::RunVariant(prepared.value(), core::ModelKind::kTreeGini,
                       core::FeatureVariant::kNoJoin, core::Effort::kFull);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().test_accuracy, 0.6);
}

}  // namespace
}  // namespace hamlet
