// The precomputed-Gram path of the SMO suites (svm_test.cc,
// kernel_cache_test.cc, integration_test.cc): a dense Gram matrix built
// pair by pair from the scalar KernelEval, a KernelRowSource over it,
// and SolveSmo on a Gram matrix. Production fits serve rows from
// ml::KernelCache only; this is the reference row source the cache and
// the solver are checked against, and it lets a test hand-craft a tiny
// Gram matrix.

#ifndef HAMLET_TESTS_GRAM_SOURCE_H_
#define HAMLET_TESTS_GRAM_SOURCE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hamlet/common/status.h"
#include "hamlet/ml/svm/kernel.h"
#include "hamlet/ml/svm/smo.h"

namespace hamlet {
namespace test {

/// Dense symmetric Gram matrix over `rows` (n rows of length d,
/// row-major), stored row-major as n*n floats. Entry (i, j) is
/// static_cast<float>(KernelEval(x_i, x_j)), the bits every kernel row
/// must reproduce.
inline std::vector<float> ComputeGram(const ml::KernelConfig& config,
                                      const std::vector<uint32_t>& rows,
                                      size_t n, size_t d) {
  assert(rows.size() == n * d);
  std::vector<float> gram(n * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const float v = static_cast<float>(
          ml::KernelEval(config, rows.data() + i * d, rows.data() + j * d, d));
      gram[i * n + j] = v;
      gram[j * n + i] = v;
    }
  }
  return gram;
}

/// A precomputed n x n row-major Gram matrix as a row source. Every
/// access counts as a hit (the matrix is fully materialised) and active
/// restrictions are no-ops (full rows are always valid).
class FullGramRowSource : public ml::KernelRowSource {
 public:
  /// `gram` must outlive the adapter and hold n*n floats.
  FullGramRowSource(const std::vector<float>& gram, size_t n)
      : gram_(gram), n_(n), diag_(n) {
    for (size_t i = 0; i < n; ++i) diag_[i] = gram[i * n + i];
  }

  const float* Row(size_t i) override {
    ++hits_;
    return gram_.data() + i * n_;
  }
  float At(size_t i, size_t j) const override { return gram_[i * n_ + j]; }
  const float* PeekRow(size_t i) const override {
    return gram_.data() + i * n_;
  }
  const float* Diag() const override { return diag_.data(); }
  size_t size() const override { return n_; }
  /// Row() calls so far.
  uint64_t hits() const { return hits_; }

 private:
  const std::vector<float>& gram_;
  size_t n_;
  std::vector<float> diag_;
  uint64_t hits_ = 0;
};

/// SolveSmo over a full Gram matrix (n x n row-major floats).
inline Result<ml::SmoSolution> SolveSmo(const std::vector<float>& gram,
                                        const std::vector<int8_t>& y,
                                        const ml::SmoConfig& config) {
  const size_t n = y.size();
  if (n == 0) return Status::InvalidArgument("empty problem");
  if (gram.size() != n * n) {
    return Status::InvalidArgument("gram size != n*n");
  }
  FullGramRowSource rows(gram, n);
  return ml::SolveSmo(rows, y, config);
}

}  // namespace test
}  // namespace hamlet

#endif  // HAMLET_TESTS_GRAM_SOURCE_H_
