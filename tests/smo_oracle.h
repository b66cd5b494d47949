// Solver-independent reference check for the SMO suites (svm_test.cc,
// kernel_cache_test.cc): the full-problem KKT violation of a dual
// iterate, recomputed from scratch over a full Gram matrix. It shares no
// code with the solver, so it can judge any solution the solver returns.

#ifndef HAMLET_TESTS_SMO_ORACLE_H_
#define HAMLET_TESTS_SMO_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace hamlet {
namespace test {

/// Max KKT violation m - M of (alpha, bias) on the FULL problem,
/// recomputed from scratch (no solver state): the solver may only claim
/// convergence when this is below tolerance, shrink schedule or not.
inline double FullProblemViolation(const std::vector<float>& gram,
                                   const std::vector<int8_t>& y,
                                   const std::vector<double>& alpha,
                                   double C) {
  const size_t n = y.size();
  double up_best = -std::numeric_limits<double>::infinity();
  double low_best = std::numeric_limits<double>::infinity();
  for (size_t t = 0; t < n; ++t) {
    double f = 0.0;
    for (size_t s = 0; s < n; ++s) {
      f += alpha[s] * y[s] * static_cast<double>(gram[t * n + s]);
    }
    // score = -(f + b - y_t); the bias shift is common to every score
    // and cancels in m - M, so it is dropped here.
    const double score = static_cast<double>(y[t]) - f;
    const bool in_up = (y[t] > 0 && alpha[t] < C) ||
                       (y[t] < 0 && alpha[t] > 0.0);
    const bool in_low = (y[t] > 0 && alpha[t] > 0.0) ||
                        (y[t] < 0 && alpha[t] < C);
    if (in_up && score > up_best) up_best = score;
    if (in_low && score < low_best) low_best = score;
  }
  return up_best - low_best;
}

}  // namespace test
}  // namespace hamlet

#endif  // HAMLET_TESTS_SMO_ORACLE_H_
