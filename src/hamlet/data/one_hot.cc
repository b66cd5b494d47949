#include "hamlet/data/one_hot.h"

namespace hamlet {

OneHotMap::OneHotMap(const DataView& view) {
  offsets_.resize(view.num_features());
  uint32_t offset = 0;
  for (size_t j = 0; j < view.num_features(); ++j) {
    offsets_[j] = offset;
    offset += view.domain_size(j);
  }
  dimension_ = offset;
}

OneHotMap::OneHotMap(const std::vector<uint32_t>& domain_sizes) {
  offsets_.resize(domain_sizes.size());
  uint32_t offset = 0;
  for (size_t j = 0; j < domain_sizes.size(); ++j) {
    offsets_[j] = offset;
    offset += domain_sizes[j];
  }
  dimension_ = offset;
}

void OneHotMap::ActiveUnitsFromCodes(const uint32_t* codes,
                                     std::vector<uint32_t>& out) const {
  out.resize(offsets_.size());
  for (size_t j = 0; j < offsets_.size(); ++j) {
    out[j] = offsets_[j] + codes[j];
  }
}

}  // namespace hamlet
