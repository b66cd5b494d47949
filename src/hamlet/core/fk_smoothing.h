// Foreign-key smoothing for FK values unseen in training (paper §6.2).
//
// With a large |D_FK|, some FK values in D_FK never occur among the
// training rows but do occur at test time (not cold start: the domain is
// known). Popular tree packages crash on such values. Smoothing reassigns
// an unseen FK value to a seen one:
//   * Random — uniformly among the seen values.
//   * XrBased — to the seen value whose dimension-row X_R is closest in
//     l0 (count of mismatching foreign features); uses the dimension
//     table as side information even when its features are not learned
//     over (the "best of both worlds" observation).

#ifndef HAMLET_CORE_FK_SMOOTHING_H_
#define HAMLET_CORE_FK_SMOOTHING_H_

#include <cstdint>
#include <vector>

#include "hamlet/common/status.h"
#include "hamlet/core/fk_compression.h"
#include "hamlet/data/view.h"
#include "hamlet/relational/table.h"

namespace hamlet {
namespace core {

/// Reassignment strategy for unseen FK values.
enum class SmoothingMethod {
  kRandom,
  kXrBased,
};

const char* SmoothingMethodName(SmoothingMethod method);

/// Codes of `view_feature` occurring in `train` (bitmap of size domain).
std::vector<uint8_t> SeenCodes(const DataView& train, size_t view_feature);

/// Random reassignment of unseen codes to seen ones. Both builders return
/// a domain-preserving mapping (seen codes map to themselves, `new_domain`
/// = seen.size()) for ApplyMapping, and FailedPrecondition when no code is
/// seen.
Result<DomainMapping> BuildRandomSmoothing(const std::vector<uint8_t>& seen,
                                           uint64_t seed);

/// X_R-based reassignment: unseen code u maps to the seen code whose row in
/// `dimension` has minimal l0 distance to u's row (ties: smallest code).
Result<DomainMapping> BuildXrSmoothing(const std::vector<uint8_t>& seen,
                                       const Table& dimension);

}  // namespace core
}  // namespace hamlet

#endif  // HAMLET_CORE_FK_SMOOTHING_H_
