// SVM kernels evaluated directly on categorical code vectors.
//
// All features are categorical and conceptually one-hot encoded (§2.2 of
// the paper). For one-hot vectors u(x), u(z):
//   u(x)·u(z)       = #matching features           (linear kernel)
//   ||u(x)-u(z)||^2 = 2 × #mismatching features    (RBF exponent)
// so every kernel is a function of the match count m alone, and over d
// features it takes only d+1 distinct values. The hot paths (KernelCache
// rows, SVM scoring) build those values once per fit or model with
// KernelValuesByMatches, count matches for a whole row or
// query with one simd::PackedMatchCounts call, and read each kernel
// value as table[count]. The kernel float math lives in one function in
// kernel.cc, which KernelValuesByMatches and KernelEval share, so a
// table entry and the scalar KernelEval of a pair with the same match
// count are the same bits.
// The paper's grid kernels: linear, quadratic polynomial, Gaussian RBF.

#ifndef HAMLET_ML_SVM_KERNEL_H_
#define HAMLET_ML_SVM_KERNEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hamlet {
namespace ml {

enum class KernelType {
  /// k(x,z) = u(x)·u(z) / d (match fraction). Normalising by the feature
  /// count keeps the kernel scale — and therefore the meaning of C —
  /// independent of how many columns the feature variant selects;
  /// without it, JoinAll's wider feature sets need far more SMO
  /// iterations than NoJoin's for the same C.
  kLinear,
  kPoly,    ///< k(x,z) = (gamma · u(x)·u(z))^degree  (paper: degree 2)
  kRbf,     ///< k(x,z) = exp(-gamma · ||u(x)-u(z)||^2)
};

const char* KernelTypeName(KernelType type);

/// Kernel configuration; `gamma` is ignored by kLinear.
struct KernelConfig {
  KernelType type = KernelType::kRbf;
  double gamma = 0.1;
  int degree = 2;
};

/// Largest `degree` a saved SVM model may carry (KernelSvm::LoadBody
/// rejects others). The paper's grid uses degree 2.
constexpr int kMaxKernelDegree = 16;

/// Number of matching positions between two code vectors of length d.
size_t MatchCount(const uint32_t* a, const uint32_t* b, size_t d);

/// Kernel value by match count over d features: table[m] is the kernel
/// of any pair with m matching features, for m = 0..d (d + 1 entries).
/// table[m] at a simd::PackedMatchCounts count m is bit-identical to
/// KernelEval on the unpacked codes: the packed count is exact and both
/// read the same float math.
std::vector<double> KernelValuesByMatches(const KernelConfig& config,
                                          size_t d);

/// Kernel value for two code vectors of length d (the scalar reference
/// the table paths are tested against).
double KernelEval(const KernelConfig& config, const uint32_t* a,
                  const uint32_t* b, size_t d);

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_SVM_KERNEL_H_
