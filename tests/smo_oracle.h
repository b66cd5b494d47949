// Solver-independent references for the SMO suites (svm_test.cc,
// kernel_cache_test.cc, smo_kernel_parity_test.cc): the full-problem KKT
// violation of a dual iterate, recomputed from scratch over a full Gram
// matrix, the plain WSS2 j-step over original indices, and the all-t
// gradient reconstruction of an unshrink. They share no code with the
// solver, so they can judge anything the solver returns.

#ifndef HAMLET_TESTS_SMO_ORACLE_H_
#define HAMLET_TESTS_SMO_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "hamlet/ml/svm/smo.h"

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

/// The plain second-order (WSS2) j-step over original indices: given
/// i's kernel row and up-score `up_best` (= -error_i), the I_low
/// candidate maximising the quadratic gain
///   (up_best - score_t)^2 / max(kii + K_tt - 2*K_it, tau),  tau = 1e-12,
/// over the `active_count` ascending original indices in `active`, or
/// SIZE_MAX when no candidate violates (up_best - score_t <= 0 for all).
/// It starts from -inf and divides at every candidate; strict > keeps
/// the first maximum, so equal gains resolve to the lowest original
/// index. simd::SmoSelectJ must pick the same candidate.
inline size_t SelectWss2J(const float* row_i, const float* diag,
                          const double* error, const int8_t* y,
                          const double* alpha, double C,
                          const int32_t* active, size_t active_count,
                          double kii, double up_best) {
  constexpr double kTau = 1e-12;
  double best_gain = -std::numeric_limits<double>::infinity();
  size_t best = std::numeric_limits<size_t>::max();
  for (size_t k = 0; k < active_count; ++k) {
    const size_t t = static_cast<size_t>(active[k]);
    const double diff = up_best + error[t];  // up_best - (-error_t)
    double eta = kii + static_cast<double>(diag[t]) -
                 2.0 * static_cast<double>(row_i[t]);
    if (eta < kTau) eta = kTau;
    const double gain = diff * diff / eta;
    const bool in_low = (y[t] > 0 && alpha[t] > 0.0) ||
                        (y[t] < 0 && alpha[t] < C);
    if (gain > best_gain && diff > 0.0 && in_low) {
      best_gain = gain;
      best = t;
    }
  }
  return best;
}

/// The gradient reconstruction of an unshrink as one loop over every
/// point: each inactive t (inactive[t] != 0) restarts from bias - y_t,
/// then for each s with alpha_s != 0, in ascending order, row s is
/// fetched through rows.Row(s) and every inactive t, tested one by one,
/// gains (alpha_s * y_s) * K(x_s, x_t). Returns the errors by original
/// index (0 at active points). ml::ReconstructErrors must give each
/// inactive point the same bits and make the same Row calls.
inline std::vector<double> ReconstructErrorsAllT(
    ml::KernelRowSource& rows, const std::vector<int8_t>& y,
    const std::vector<double>& alpha, double bias,
    const std::vector<uint8_t>& inactive) {
  const size_t n = y.size();
  std::vector<double> error(n, 0.0);
  for (size_t t = 0; t < n; ++t) {
    if (inactive[t]) error[t] = bias - static_cast<double>(y[t]);
  }
  for (size_t s = 0; s < n; ++s) {
    if (alpha[s] == 0.0) continue;
    const float* gs = rows.Row(s);
    const double c = alpha[s] * static_cast<double>(y[s]);
    for (size_t t = 0; t < n; ++t) {
      if (inactive[t]) error[t] += c * static_cast<double>(gs[t]);
    }
  }
  return error;
}

}  // namespace test
}  // namespace hamlet

#endif  // HAMLET_TESTS_SMO_ORACLE_H_
