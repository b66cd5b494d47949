#include "hamlet/ml/svm/kernel.h"

#include <cmath>

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

}  // namespace ml
}  // namespace hamlet
