// Shared driver for the accuracy tables (paper Tables 2, 3, 5, 6).
//
// Runs a list of model kinds over all simulated datasets and prints one
// row per dataset with JoinAll / NoJoin (and NoFK for the tree tables)
// accuracies. Each model is fitted once: the holdout test accuracy makes
// up Table 2 or 3, and the training accuracy of the same fits makes up
// Table 5 or 6.

#ifndef HAMLET_BENCH_BENCH_TABLES_H_
#define HAMLET_BENCH_BENCH_TABLES_H_

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "hamlet/synth/realworld.h"

namespace hamlet {
namespace bench {

struct TableColumn {
  core::ModelKind kind;
  core::FeatureVariant variant;
  /// Whether the training-accuracy table reports this column too
  /// (Table 5 leaves out two of Table 2's NoFK columns).
  bool in_train_table = true;
};

/// One dataset's row of the training-accuracy table: the prepare error
/// if the dataset failed to prepare, else one cell per in_train_table
/// column (empty where the fit failed).
struct TrainAccuracyRow {
  std::string dataset;
  std::string prepare_error;
  std::vector<std::optional<double>> cells;
};

inline void PrintColumnLabels(const std::vector<TableColumn>& columns) {
  std::printf("%-10s", "Dataset");
  for (const auto& col : columns) {
    const std::string label = std::string(core::ModelKindName(col.kind)) +
                              ":" +
                              core::FeatureVariantName(col.variant);
    std::printf(" %-22s", label.c_str());
  }
  std::printf("\n");
}

/// Fits `columns` once on every simulated dataset and prints the holdout
/// test accuracy (Tables 2/3) with 4 decimals as the fits finish. Returns
/// the training accuracies of the same fits for PrintTrainAccuracyTable.
inline std::vector<TrainAccuracyRow> RunAccuracyTable(
    const std::vector<TableColumn>& columns) {
  const core::Effort effort = core::EffortFromEnv();
  std::vector<TrainAccuracyRow> train_rows;
  PrintColumnLabels(columns);
  for (const auto& spec : BenchSpecs()) {
    TrainAccuracyRow& train = train_rows.emplace_back();
    train.dataset = spec.name;
    StarSchema star = synth::GenerateRealWorld(spec);
    Result<core::PreparedData> prepared =
        core::Prepare(star, spec.seed + 991,
                      synth::RealWorldJoinOptions(spec));
    if (!prepared.ok()) {
      train.prepare_error = prepared.status().ToString();
      std::printf("%-10s prepare failed: %s\n", spec.name.c_str(),
                  train.prepare_error.c_str());
      ReportFailure();
      continue;
    }
    std::printf("%-10s", spec.name.c_str());
    std::fflush(stdout);
    for (const auto& col : columns) {
      Result<core::VariantResult> r =
          core::RunVariant(prepared.value(), col.kind, col.variant, effort);
      if (!r.ok()) {
        std::printf(" %-22s", "ERR");
        ReportFailure();
        if (col.in_train_table) train.cells.emplace_back();
        continue;
      }
      std::printf(" %-22.4f", r.value().test_accuracy);
      std::fflush(stdout);
      if (col.in_train_table) {
        train.cells.emplace_back(r.value().train_accuracy);
      }
    }
    std::printf("\n");
  }
  return train_rows;
}

/// Prints the training accuracies RunAccuracyTable kept (Tables 5/6) in
/// the same layout, over the in_train_table columns.
inline void PrintTrainAccuracyTable(const std::vector<TableColumn>& columns,
                                    const std::vector<TrainAccuracyRow>& rows) {
  std::vector<TableColumn> train_columns;
  for (const auto& col : columns) {
    if (col.in_train_table) train_columns.push_back(col);
  }
  PrintColumnLabels(train_columns);
  for (const auto& row : rows) {
    if (!row.prepare_error.empty()) {
      std::printf("%-10s prepare failed: %s\n", row.dataset.c_str(),
                  row.prepare_error.c_str());
      continue;
    }
    std::printf("%-10s", row.dataset.c_str());
    for (const auto& cell : row.cells) {
      if (cell) {
        std::printf(" %-22.4f", *cell);
      } else {
        std::printf(" %-22s", "ERR");
      }
    }
    std::printf("\n");
  }
}

}  // namespace bench
}  // namespace hamlet

#endif  // HAMLET_BENCH_BENCH_TABLES_H_
