// Feature-variant construction: JoinAll / NoJoin / NoFK and the Table-4
// drop-one-dimension subsets.
//
// All variants are feature-id subsets over the single materialised join
// output, selected purely by FeatureRole/dim tags — NoJoin provably never
// reads a foreign-feature column.

#ifndef HAMLET_CORE_VARIANTS_H_
#define HAMLET_CORE_VARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hamlet/data/dataset.h"

namespace hamlet {
namespace core {

/// The three approaches the paper compares (§3.2).
enum class FeatureVariant {
  kJoinAll,  ///< X_S + FKs + all X_R (current widespread practice)
  kNoJoin,   ///< X_S + FKs only (avoid all joins a priori)
  kNoFK,     ///< X_S + all X_R, FKs dropped
};

const char* FeatureVariantName(FeatureVariant v);

/// Column ids of `data` matching the variant.
std::vector<uint32_t> SelectVariant(const Dataset& data, FeatureVariant v);

/// JoinAll minus the foreign features of the dimensions in `dims_to_drop`
/// (their FK columns are kept — the Table 4 "NoR_i" robustness study).
std::vector<uint32_t> SelectDroppingDimensions(
    const Dataset& data, const std::vector<int>& dims_to_drop);

/// Column ids of all FK columns (helper for compression/smoothing).
std::vector<uint32_t> ForeignKeyColumns(const Dataset& data);

}  // namespace core
}  // namespace hamlet

#endif  // HAMLET_CORE_VARIANTS_H_
