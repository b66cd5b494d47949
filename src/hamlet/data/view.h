// Zero-copy row/feature-subset view over a Dataset.
//
// A DataView is the universal learner input: (dataset, row ids, feature
// ids). Train/validation/test splits are row subsets; JoinAll / NoJoin /
// NoFK are feature subsets; both compose without copying data.

#ifndef HAMLET_DATA_VIEW_H_
#define HAMLET_DATA_VIEW_H_

#include <cstdint>
#include <vector>

#include "hamlet/data/dataset.h"

namespace hamlet {

/// Lightweight (pointer + index vectors) view; copyable, non-owning. The
/// underlying Dataset must outlive the view.
class DataView {
 public:
  DataView() = default;

  /// View of all rows and all features.
  explicit DataView(const Dataset* data);

  DataView(const Dataset* data, std::vector<uint32_t> rows,
           std::vector<uint32_t> features);

  size_t num_rows() const { return rows_.size(); }
  size_t num_features() const { return features_.size(); }

  /// Code of view-row i, view-feature j.
  uint32_t feature(size_t i, size_t j) const {
    return data_->feature(rows_[i], features_[j]);
  }
  uint8_t label(size_t i) const { return data_->label(rows_[i]); }

  uint32_t domain_size(size_t j) const {
    return data_->feature_spec(features_[j]).domain_size;
  }
  const FeatureSpec& feature_spec(size_t j) const {
    return data_->feature_spec(features_[j]);
  }

  /// Underlying dataset row id for view-row i.
  uint32_t row_id(size_t i) const { return rows_[i]; }
  /// Underlying dataset column id for view-feature j.
  uint32_t feature_id(size_t j) const { return features_[j]; }

  const Dataset* dataset() const { return data_; }
  const std::vector<uint32_t>& rows() const { return rows_; }
  const std::vector<uint32_t>& features() const { return features_; }

  /// Same rows, different feature subset (underlying dataset column ids).
  DataView WithFeatures(std::vector<uint32_t> feature_ids) const;

 private:
  const Dataset* data_ = nullptr;
  std::vector<uint32_t> rows_;
  std::vector<uint32_t> features_;
};

}  // namespace hamlet

#endif  // HAMLET_DATA_VIEW_H_
