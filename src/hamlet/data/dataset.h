// Learning-ready dataset: the output of the KFK join with role-tagged
// feature columns.
//
// Each column carries a FeatureRole so that the JoinAll / NoJoin / NoFK
// variants of the paper are pure feature-subset selections (core/variants.h)
// over one materialised table — NoJoin never touches foreign-feature bytes.

#ifndef HAMLET_DATA_DATASET_H_
#define HAMLET_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hamlet/common/status.h"

namespace hamlet {

/// Provenance of a feature column in the joined table.
enum class FeatureRole : uint8_t {
  kHome = 0,        ///< from the fact table (X_S)
  kForeignKey = 1,  ///< an FK_i column
  kForeign = 2,     ///< from a dimension table (X_Ri)
};

const char* FeatureRoleName(FeatureRole role);

/// Metadata for one feature column of a Dataset.
struct FeatureSpec {
  std::string name;
  uint32_t domain_size = 0;
  FeatureRole role = FeatureRole::kHome;
  /// Dimension-table index the column came from; -1 for home features.
  int dim_index = -1;
};

/// Column-major labeled dataset of categorical codes.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<FeatureSpec> features);

  size_t num_rows() const { return labels_.size(); }
  size_t num_features() const { return features_.size(); }

  const FeatureSpec& feature_spec(size_t col) const { return features_[col]; }

  uint32_t feature(size_t row, size_t col) const {
    return columns_[col][row];
  }
  uint8_t label(size_t row) const { return labels_[row]; }
  const std::vector<uint32_t>& column(size_t col) const {
    return columns_[col];
  }
  const std::vector<uint8_t>& labels() const { return labels_; }

  /// Appends a validated labeled row.
  Status AppendRow(const std::vector<uint32_t>& codes, uint8_t label);

  /// Hot-path append for generators/join (assert-only validation).
  void AppendRowUnchecked(const std::vector<uint32_t>& codes, uint8_t label);

  /// Appends `n` rows stored row-major at `codes` (num_features() codes
  /// each), all labelled `label`, filling one column at a time. Checked
  /// only by assert, like AppendRowUnchecked: the caller has validated
  /// every code against its domain.
  void AppendRowMajorUnchecked(const uint32_t* codes, size_t n,
                               uint8_t label);

  /// Index of the feature named `name`, or -1.
  int IndexOf(const std::string& name) const;

  void Reserve(size_t rows);

  /// Drops every row but keeps the schema and the column capacity, so a
  /// buffer refilled batch after batch allocates once.
  void ClearRows();

  /// Overwrites column `col` (same length) with codes over a (possibly)
  /// different domain. Used by FK domain compression.
  Status ReplaceColumn(size_t col, std::vector<uint32_t> codes,
                       uint32_t new_domain_size);

 private:
  std::vector<FeatureSpec> features_;
  std::vector<std::vector<uint32_t>> columns_;
  std::vector<uint8_t> labels_;
};

}  // namespace hamlet

#endif  // HAMLET_DATA_DATASET_H_
