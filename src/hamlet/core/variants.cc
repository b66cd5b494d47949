#include "hamlet/core/variants.h"

#include <algorithm>

namespace hamlet {
namespace core {

const char* FeatureVariantName(FeatureVariant v) {
  switch (v) {
    case FeatureVariant::kJoinAll:
      return "JoinAll";
    case FeatureVariant::kNoJoin:
      return "NoJoin";
    case FeatureVariant::kNoFK:
      return "NoFK";
  }
  return "unknown";
}

std::vector<uint32_t> SelectVariant(const Dataset& data, FeatureVariant v) {
  // Dimensions with an FK column in the joined output. A dimension without
  // one has an open-domain FK (e.g. Expedia's search id): the paper notes
  // such a table "can never be discarded" — its FK cannot act as a
  // representative — so NoJoin must keep its foreign features.
  std::vector<bool> has_fk;
  for (uint32_t c = 0; c < data.num_features(); ++c) {
    const FeatureSpec& spec = data.feature_spec(c);
    if (spec.dim_index >= 0 &&
        static_cast<size_t>(spec.dim_index) >= has_fk.size()) {
      has_fk.resize(static_cast<size_t>(spec.dim_index) + 1, false);
    }
    if (spec.role == FeatureRole::kForeignKey) {
      has_fk[static_cast<size_t>(spec.dim_index)] = true;
    }
  }

  std::vector<uint32_t> cols;
  for (uint32_t c = 0; c < data.num_features(); ++c) {
    const FeatureSpec& spec = data.feature_spec(c);
    bool keep = false;
    switch (spec.role) {
      case FeatureRole::kHome:
        keep = true;
        break;
      case FeatureRole::kForeignKey:
        keep = v != FeatureVariant::kNoFK;
        break;
      case FeatureRole::kForeign:
        keep = v != FeatureVariant::kNoJoin ||
               !has_fk[static_cast<size_t>(spec.dim_index)];
        break;
    }
    if (keep) cols.push_back(c);
  }
  return cols;
}

std::vector<uint32_t> SelectDroppingDimensions(
    const Dataset& data, const std::vector<int>& dims_to_drop) {
  std::vector<uint32_t> cols;
  for (uint32_t c = 0; c < data.num_features(); ++c) {
    const FeatureSpec& spec = data.feature_spec(c);
    const bool dropped_dim =
        std::find(dims_to_drop.begin(), dims_to_drop.end(),
                  spec.dim_index) != dims_to_drop.end();
    if (spec.role == FeatureRole::kForeign && dropped_dim) continue;
    cols.push_back(c);
  }
  return cols;
}

std::vector<uint32_t> ForeignKeyColumns(const Dataset& data) {
  std::vector<uint32_t> cols;
  for (uint32_t c = 0; c < data.num_features(); ++c) {
    if (data.feature_spec(c).role == FeatureRole::kForeignKey) {
      cols.push_back(c);
    }
  }
  return cols;
}

}  // namespace core
}  // namespace hamlet
