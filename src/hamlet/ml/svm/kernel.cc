#include "hamlet/ml/svm/kernel.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "hamlet/data/packed_code_matrix.h"

namespace hamlet {
namespace ml {

const char* KernelTypeName(KernelType type) {
  switch (type) {
    case KernelType::kLinear:
      return "linear";
    case KernelType::kPoly:
      return "poly";
    case KernelType::kRbf:
      return "rbf";
  }
  return "unknown";
}

namespace {

/// Kernel value from a match count (0 <= matches <= d): the single site
/// of the kernel float math. Both public routes below read it, so equal
/// match counts give bit-identical values.
double KernelFromMatches(const KernelConfig& config, size_t matches,
                         size_t d) {
  switch (config.type) {
    case KernelType::kLinear:
      return static_cast<double>(matches) / static_cast<double>(d);
    case KernelType::kPoly: {
      const double base = config.gamma * static_cast<double>(matches);
      double out = 1.0;
      for (int k = 0; k < config.degree; ++k) out *= base;
      return out;
    }
    case KernelType::kRbf: {
      const double sq_dist = 2.0 * static_cast<double>(d - matches);
      return std::exp(-config.gamma * sq_dist);
    }
  }
  return 0.0;
}

}  // namespace

size_t MatchCount(const uint32_t* a, const uint32_t* b, size_t d) {
  size_t matches = 0;
  for (size_t j = 0; j < d; ++j) matches += a[j] == b[j];
  return matches;
}

std::vector<double> KernelValuesByMatches(const KernelConfig& config,
                                          size_t d) {
  std::vector<double> table(d + 1);
  for (size_t m = 0; m <= d; ++m) table[m] = KernelFromMatches(config, m, d);
  return table;
}

double KernelEval(const KernelConfig& config, const uint32_t* a,
                  const uint32_t* b, size_t d) {
  return KernelFromMatches(config, MatchCount(a, b, d), d);
}

std::vector<float> ComputeGram(const KernelConfig& config,
                               const std::vector<uint32_t>& rows, size_t n,
                               size_t d) {
  assert(rows.size() == n * d);
  // This path has no domain metadata, so the layout derives from the
  // largest code actually present; the match counts (and therefore every
  // Gram entry) do not depend on the layout choice.
  uint32_t max_code = 0;
  for (const uint32_t c : rows) max_code = std::max(max_code, c);
  const simd::PackedLayout layout = simd::PackedLayout::ForMaxCode(max_code, d);
  const PackedCodeMatrix packed(layout, rows.data(), n);
  const std::vector<double> table = KernelValuesByMatches(config, d);
  std::vector<uint32_t> counts(n);
  std::vector<float> gram(n * n);
  for (size_t i = 0; i < n; ++i) {
    // Row i against rows i..n-1, one contiguous run of the slab.
    simd::PackedMatchCounts(layout, packed.row(i), packed.row(i), nullptr,
                            n - i, counts.data());
    for (size_t j = i; j < n; ++j) {
      const float v = static_cast<float>(table[counts[j - i]]);
      gram[i * n + j] = v;
      gram[j * n + i] = v;
    }
  }
  const uint64_t evals = static_cast<uint64_t>(n) * (n + 1) / 2;
  simd::AccumulatePackedEvals(evals, evals * layout.words_per_row);
  return gram;
}

}  // namespace ml
}  // namespace hamlet
