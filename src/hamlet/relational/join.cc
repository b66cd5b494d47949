#include "hamlet/relational/join.h"

#include <algorithm>

namespace hamlet {

namespace {

bool IsOpenDomain(const JoinOptions& options, size_t dim) {
  return std::find(options.open_domain_fks.begin(),
                   options.open_domain_fks.end(),
                   dim) != options.open_domain_fks.end();
}

/// Output columns in [X_S, FK_1..FK_q, X_R1.., X_Rq..] order with roles.
std::vector<FeatureSpec> JoinedSchema(const StarSchema& star,
                                      const JoinOptions& options) {
  std::vector<FeatureSpec> specs;
  // Home features.
  for (size_t c = 0; c < star.fact().num_columns(); ++c) {
    const ColumnSpec& col = star.fact().schema().column(c);
    specs.push_back(FeatureSpec{col.name, col.domain_size,
                                FeatureRole::kHome, -1});
  }
  // Foreign keys.
  if (options.include_fks) {
    for (size_t i = 0; i < star.num_dimensions(); ++i) {
      if (IsOpenDomain(options, i)) continue;
      const DimensionTable& dim = star.dimension(i);
      specs.push_back(FeatureSpec{
          "fk_" + dim.name, static_cast<uint32_t>(dim.table.num_rows()),
          FeatureRole::kForeignKey, static_cast<int>(i)});
    }
  }
  // Foreign features, per dimension.
  for (size_t i = 0; i < star.num_dimensions(); ++i) {
    const DimensionTable& dim = star.dimension(i);
    for (size_t c = 0; c < dim.table.num_columns(); ++c) {
      const ColumnSpec& col = dim.table.schema().column(c);
      specs.push_back(FeatureSpec{dim.name + "." + col.name, col.domain_size,
                                  FeatureRole::kForeign,
                                  static_cast<int>(i)});
    }
  }
  return specs;
}

}  // namespace

Result<Dataset> JoinAllTables(const StarSchema& star,
                              const JoinOptions& options) {
  Status st = star.Validate();
  if (!st.ok()) return st;

  Dataset out(JoinedSchema(star, options));
  const size_t n = star.num_facts();
  out.Reserve(n);

  const size_t ds = star.fact().num_columns();
  std::vector<uint32_t> row;
  row.reserve(out.num_features());
  for (size_t r = 0; r < n; ++r) {
    row.clear();
    for (size_t c = 0; c < ds; ++c) row.push_back(star.fact().at(r, c));
    if (options.include_fks) {
      for (size_t i = 0; i < star.num_dimensions(); ++i) {
        if (IsOpenDomain(options, i)) continue;
        row.push_back(star.fk_column(i)[r]);
      }
    }
    for (size_t i = 0; i < star.num_dimensions(); ++i) {
      const uint32_t rid = star.fk_column(i)[r];
      const Table& dim = star.dimension(i).table;
      for (size_t c = 0; c < dim.num_columns(); ++c) {
        row.push_back(dim.at(rid, c));
      }
    }
    out.AppendRowUnchecked(row, star.labels()[r]);
  }
  return out;
}

}  // namespace hamlet
