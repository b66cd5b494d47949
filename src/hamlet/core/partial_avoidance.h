// Partial join avoidance — the paper's §5.2 open question, implemented.
//
// "The axioms of FDs imply that foreign features can be divided into
// arbitrary subsets before being avoided, which opens up a new trade-off
// space between fully avoiding a foreign table and fully using it."
//
// This module ranks a dimension's foreign features by their estimated
// mutual information with the target on the training split and builds
// feature sets that keep only the top-k foreign features per dimension
// (plus FKs and home features). k = 0 degenerates to NoJoin; k = d_R to
// JoinAll. The bench `bench_ext_partial_avoidance` sweeps k and shows the
// trade-off curve.

#ifndef HAMLET_CORE_PARTIAL_AVOIDANCE_H_
#define HAMLET_CORE_PARTIAL_AVOIDANCE_H_

#include <cstdint>
#include <vector>

#include "hamlet/data/view.h"

namespace hamlet {
namespace core {

/// Mutual information I(Y; X_c) in nats, estimated from the view's rows by
/// plug-in frequencies. 0 <= I <= min(H(Y), log |domain|).
double MutualInformationWithLabel(const DataView& view, size_t view_feature);

/// One foreign feature's usefulness estimate.
struct RankedFeature {
  uint32_t column = 0;   ///< dataset column id
  int dim_index = -1;
  double mutual_information = 0.0;
};

/// Ranks all foreign features of `data` by I(Y; X) computed on `train`
/// (which must view all columns of `data`), descending; ties broken by
/// column id for determinism.
std::vector<RankedFeature> RankForeignFeatures(const Dataset& data,
                                               const DataView& train);

/// Feature subset keeping home features, FKs, foreign features of
/// open-domain dimensions (which NoJoin cannot drop either), and the
/// `keep_per_dim` highest-MI foreign features of every other dimension.
std::vector<uint32_t> SelectPartialAvoidance(
    const Dataset& data, const DataView& train, size_t keep_per_dim);

}  // namespace core
}  // namespace hamlet

#endif  // HAMLET_CORE_PARTIAL_AVOIDANCE_H_
