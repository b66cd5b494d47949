#include "hamlet/core/fk_compression.h"

#include <algorithm>

#include "hamlet/common/rng.h"

namespace hamlet {
namespace core {

Result<DomainMapping> BuildRandomHashMapping(uint32_t m, uint32_t budget,
                                             uint64_t seed) {
  if (budget < 1) return Status::InvalidArgument("budget must be >= 1");
  DomainMapping out;
  out.new_domain = std::min(m, budget);
  out.map.resize(m);
  for (uint32_t v = 0; v < m; ++v) {
    // SplitMix64 as the hash; seed acts as the hash-family selector.
    uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (v + 1));
    out.map[v] = static_cast<uint32_t>(SplitMix64(state) % out.new_domain);
  }
  return out;
}

Result<DomainMapping> BuildSortedEntropyMapping(const DataView& train,
                                                size_t view_feature,
                                                uint32_t budget) {
  if (view_feature >= train.num_features()) {
    return Status::OutOfRange("no such view feature");
  }
  if (budget < 1) return Status::InvalidArgument("budget must be >= 1");
  const uint32_t m = train.domain_size(view_feature);

  // Per-code label stats on the training rows.
  std::vector<double> pos(m, 0.0), total(m, 0.0);
  for (size_t i = 0; i < train.num_rows(); ++i) {
    const uint32_t c = train.feature(i, view_feature);
    total[c] += 1.0;
    pos[c] += train.label(i);
  }

  // Codes seen in training, sorted by the conditional positive rate
  // P(Y=1 | FK = v) (ties by code for determinism). The paper describes
  // sorting by H(Y | FK = z); we sort by the signed conditional instead
  // because the entropy is symmetric in the class direction — a pure-
  // positive and a pure-negative code both have H = 0 and would be merged,
  // destroying exactly the information the method tries to preserve.
  // Grouping by similar P(Y=1|FK) subsumes the stated intuition: codes in
  // one bucket have comparable conditionals, so H(Y | f(FK)) stays close
  // to H(Y | FK).
  std::vector<uint32_t> seen;
  seen.reserve(m);
  std::vector<double> phat(m, 0.0);
  for (uint32_t v = 0; v < m; ++v) {
    if (total[v] > 0.0) {
      phat[v] = pos[v] / total[v];
      seen.push_back(v);
    }
  }
  if (seen.empty()) {
    return Status::FailedPrecondition("feature has no training rows");
  }
  std::sort(seen.begin(), seen.end(), [&](uint32_t a, uint32_t b) {
    if (phat[a] != phat[b]) return phat[a] < phat[b];
    return a < b;
  });

  // Adjacent differences in the sorted order; the budget-1 largest become
  // bucket boundaries (the paper's greedy l-partition of D_FK).
  const uint32_t buckets =
      std::min<uint32_t>(budget, static_cast<uint32_t>(seen.size()));
  std::vector<size_t> boundary_positions;
  if (buckets > 1) {
    std::vector<std::pair<double, size_t>> diffs;  // (gap, position)
    diffs.reserve(seen.size() - 1);
    for (size_t k = 0; k + 1 < seen.size(); ++k) {
      diffs.emplace_back(phat[seen[k + 1]] - phat[seen[k]], k + 1);
    }
    std::sort(diffs.begin(), diffs.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;  // deterministic tie-break
    });
    for (uint32_t k = 0; k < buckets - 1 && k < diffs.size(); ++k) {
      boundary_positions.push_back(diffs[k].second);
    }
    std::sort(boundary_positions.begin(), boundary_positions.end());
  }

  DomainMapping out;
  out.new_domain = buckets;
  out.map.assign(m, 0);  // unseen codes -> bucket 0
  uint32_t bucket = 0;
  size_t next_boundary = 0;
  for (size_t k = 0; k < seen.size(); ++k) {
    if (next_boundary < boundary_positions.size() &&
        k == boundary_positions[next_boundary]) {
      ++bucket;
      ++next_boundary;
    }
    out.map[seen[k]] = bucket;
  }
  return out;
}

Status ApplyMapping(Dataset& data, size_t col, const DomainMapping& mapping) {
  if (col >= data.num_features()) return Status::OutOfRange("no such column");
  if (mapping.map.size() != data.feature_spec(col).domain_size) {
    return Status::InvalidArgument("mapping/domain size mismatch");
  }
  std::vector<uint32_t> codes = data.column(col);
  for (uint32_t& c : codes) c = mapping.map[c];
  return data.ReplaceColumn(col, std::move(codes), mapping.new_domain);
}

}  // namespace core
}  // namespace hamlet
