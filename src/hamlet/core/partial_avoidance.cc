#include "hamlet/core/partial_avoidance.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "hamlet/core/variants.h"

namespace hamlet {
namespace core {

double MutualInformationWithLabel(const DataView& view,
                                  size_t view_feature) {
  const size_t n = view.num_rows();
  if (n == 0) return 0.0;
  const uint32_t domain = view.domain_size(view_feature);
  std::vector<double> joint(static_cast<size_t>(domain) * 2, 0.0);
  double pos = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t c = view.feature(i, view_feature);
    joint[static_cast<size_t>(c) * 2 + view.label(i)] += 1.0;
    pos += view.label(i);
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  const double py1 = pos * inv_n;
  const double py0 = 1.0 - py1;
  double mi = 0.0;
  for (uint32_t c = 0; c < domain; ++c) {
    const double n0 = joint[static_cast<size_t>(c) * 2 + 0] * inv_n;
    const double n1 = joint[static_cast<size_t>(c) * 2 + 1] * inv_n;
    const double px = n0 + n1;
    if (px <= 0.0) continue;
    // I = sum p(x,y) log( p(x,y) / (p(x)p(y)) )
    if (n0 > 0.0) mi += n0 * std::log(n0 / (px * py0));
    if (n1 > 0.0) mi += n1 * std::log(n1 / (px * py1));
  }
  // Guard against tiny negative values from rounding.
  return mi > 0.0 ? mi : 0.0;
}

std::vector<RankedFeature> RankForeignFeatures(const Dataset& data,
                                               const DataView& train) {
  std::vector<RankedFeature> out;
  for (uint32_t c = 0; c < data.num_features(); ++c) {
    const FeatureSpec& spec = data.feature_spec(c);
    if (spec.role != FeatureRole::kForeign) continue;
    // Locate this dataset column inside the training view.
    size_t view_j = train.num_features();
    for (size_t j = 0; j < train.num_features(); ++j) {
      if (train.feature_id(j) == c) {
        view_j = j;
        break;
      }
    }
    if (view_j == train.num_features()) continue;  // not in the view
    out.push_back(RankedFeature{
        c, spec.dim_index, MutualInformationWithLabel(train, view_j)});
  }
  std::sort(out.begin(), out.end(),
            [](const RankedFeature& a, const RankedFeature& b) {
              if (a.mutual_information != b.mutual_information) {
                return a.mutual_information > b.mutual_information;
              }
              return a.column < b.column;
            });
  return out;
}

std::vector<uint32_t> SelectPartialAvoidance(const Dataset& data,
                                             const DataView& train,
                                             size_t keep_per_dim) {
  // Start from NoJoin (home + FKs + open-domain dims' foreign features).
  std::vector<uint32_t> cols = SelectVariant(data, FeatureVariant::kNoJoin);
  std::vector<bool> selected(data.num_features(), false);
  for (uint32_t c : cols) selected[c] = true;

  // Add the top-k foreign features per closed-domain dimension.
  std::map<int, size_t> taken;
  for (const RankedFeature& rf : RankForeignFeatures(data, train)) {
    if (selected[rf.column]) continue;  // already kept (open-domain dim)
    if (taken[rf.dim_index] >= keep_per_dim) continue;
    selected[rf.column] = true;
    ++taken[rf.dim_index];
  }

  std::vector<uint32_t> out;
  for (uint32_t c = 0; c < data.num_features(); ++c) {
    if (selected[c]) out.push_back(c);
  }
  return out;
}

}  // namespace core
}  // namespace hamlet
