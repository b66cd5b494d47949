// Foreign-key domain compression (paper §6.1).
//
// Large FK domains make trees unreadable. Given a budget l << |D_FK|, build
// a mapping f: [m] -> [l] and relearn on the compressed column. Two
// methods from the paper:
//   * Random  — the feature-hashing trick: f(v) = hash(v) mod l.
//   * Sorted  — supervised: sort codes by H(Y | FK = v) estimated on the
//     training rows, take the l-1 largest adjacent differences as bucket
//     boundaries; groups codes with similar conditional entropy so
//     H(Y | f(FK)) stays close to H(Y | FK).

#ifndef HAMLET_CORE_FK_COMPRESSION_H_
#define HAMLET_CORE_FK_COMPRESSION_H_

#include <cstdint>
#include <vector>

#include "hamlet/common/status.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/view.h"

namespace hamlet {
namespace core {

/// Compression method.
enum class CompressionMethod {
  kRandomHash,
  kSortedEntropy,
};

const char* CompressionMethodName(CompressionMethod method);

/// A code mapping old-domain -> new-domain. FK compression shrinks the
/// domain; FK smoothing (fk_smoothing.h) keeps it and only moves codes.
struct DomainMapping {
  std::vector<uint32_t> map;  ///< size = old domain
  uint32_t new_domain = 0;
};

/// Builds a random-hash mapping from domain `m` to min(m, budget) buckets.
/// InvalidArgument when `budget` is 0.
Result<DomainMapping> BuildRandomHashMapping(uint32_t m, uint32_t budget,
                                             uint64_t seed);

/// Builds the supervised sort-based mapping for column `col` using only
/// the rows of `train` (labels included). Codes never seen in training are
/// assigned to bucket 0.
Result<DomainMapping> BuildSortedEntropyMapping(const DataView& train,
                                                size_t view_feature,
                                                uint32_t budget);

/// Applies `mapping` to column `col` of `data` in place (all rows: the
/// paper compresses or smooths the whole dataset after fitting the map on
/// the train split). The column's domain becomes `mapping.new_domain`.
Status ApplyMapping(Dataset& data, size_t col, const DomainMapping& mapping);

}  // namespace core
}  // namespace hamlet

#endif  // HAMLET_CORE_FK_COMPRESSION_H_
