#include "hamlet/data/view.h"

#include <cassert>
#include <numeric>

namespace hamlet {

DataView::DataView(const Dataset* data) : data_(data) {
  rows_.resize(data->num_rows());
  std::iota(rows_.begin(), rows_.end(), 0u);
  features_.resize(data->num_features());
  std::iota(features_.begin(), features_.end(), 0u);
}

DataView::DataView(const Dataset* data, std::vector<uint32_t> rows,
                   std::vector<uint32_t> features)
    : data_(data), rows_(std::move(rows)), features_(std::move(features)) {
#ifndef NDEBUG
  for (uint32_t r : rows_) assert(r < data_->num_rows());
  for (uint32_t f : features_) assert(f < data_->num_features());
#endif
}

DataView DataView::WithFeatures(std::vector<uint32_t> feature_ids) const {
  return DataView(data_, rows_, std::move(feature_ids));
}

}  // namespace hamlet
