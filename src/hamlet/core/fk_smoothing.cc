#include "hamlet/core/fk_smoothing.h"

#include <limits>

#include "hamlet/common/rng.h"

namespace hamlet {
namespace core {

namespace {

/// The codes set in `seen`, ascending; FailedPrecondition when there are
/// none (a smoothing map needs a seen code to send unseen ones to).
Result<std::vector<uint32_t>> SeenCodeList(const std::vector<uint8_t>& seen) {
  std::vector<uint32_t> codes;
  for (uint32_t v = 0; v < seen.size(); ++v) {
    if (seen[v]) codes.push_back(v);
  }
  if (codes.empty()) {
    return Status::FailedPrecondition("no codes seen in training");
  }
  return codes;
}

}  // namespace

std::vector<uint8_t> SeenCodes(const DataView& train, size_t view_feature) {
  std::vector<uint8_t> seen(train.domain_size(view_feature), 0);
  for (size_t i = 0; i < train.num_rows(); ++i) {
    seen[train.feature(i, view_feature)] = 1;
  }
  return seen;
}

Result<DomainMapping> BuildRandomSmoothing(const std::vector<uint8_t>& seen,
                                           uint64_t seed) {
  Result<std::vector<uint32_t>> seen_codes = SeenCodeList(seen);
  if (!seen_codes.ok()) return seen_codes.status();
  const std::vector<uint32_t>& codes = seen_codes.value();
  Rng rng(seed);
  DomainMapping out;
  out.new_domain = static_cast<uint32_t>(seen.size());
  out.map.resize(seen.size());
  for (uint32_t v = 0; v < seen.size(); ++v) {
    out.map[v] = seen[v] ? v : codes[rng.UniformInt(codes.size())];
  }
  return out;
}

Result<DomainMapping> BuildXrSmoothing(const std::vector<uint8_t>& seen,
                                       const Table& dimension) {
  if (seen.size() != dimension.num_rows()) {
    return Status::InvalidArgument(
        "seen bitmap size must equal the dimension cardinality");
  }
  Result<std::vector<uint32_t>> seen_codes = SeenCodeList(seen);
  if (!seen_codes.ok()) return seen_codes.status();
  const std::vector<uint32_t>& codes = seen_codes.value();

  const size_t dr = dimension.num_columns();
  DomainMapping out;
  out.new_domain = static_cast<uint32_t>(seen.size());
  out.map.resize(seen.size());
  for (uint32_t v = 0; v < seen.size(); ++v) {
    if (seen[v]) {
      out.map[v] = v;
      continue;
    }
    // Minimum l0 distance between X_R rows; ties -> smallest code (the
    // seen-code scan is in increasing order, strict < keeps the first).
    size_t best_dist = std::numeric_limits<size_t>::max();
    uint32_t best_code = codes[0];
    for (uint32_t s : codes) {
      size_t dist = 0;
      for (size_t c = 0; c < dr; ++c) {
        dist += dimension.at(v, c) != dimension.at(s, c);
        if (dist >= best_dist) break;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best_code = s;
        if (dist == 0) break;
      }
    }
    out.map[v] = best_code;
  }
  return out;
}

}  // namespace core
}  // namespace hamlet
