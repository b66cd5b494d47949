// Tests for hamlet/ml/svm: kernels, SMO solver, C-SVC classifier.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "hamlet/common/counters.h"
#include "hamlet/common/rng.h"
#include "hamlet/data/code_matrix.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/view.h"
#include "hamlet/io/model_io.h"
#include "hamlet/ml/metrics.h"
#include "hamlet/ml/svm/kernel.h"
#include "hamlet/ml/svm/smo.h"
#include "hamlet/ml/svm/svm.h"
#include "hamlet/simd/simd.h"
#include "gram_source.h"
#include "parity_util.h"
#include "smo_oracle.h"

namespace hamlet {
namespace ml {
namespace {

using counters::Counter;

// ---------------------------------------------------------------- kernel --

TEST(KernelTest, MatchCount) {
  const uint32_t a[] = {1, 2, 3, 4};
  const uint32_t b[] = {1, 0, 3, 0};
  EXPECT_EQ(MatchCount(a, b, 4), 2u);
  EXPECT_EQ(MatchCount(a, a, 4), 4u);
}

TEST(KernelTest, LinearEqualsMatchFraction) {
  KernelConfig cfg{KernelType::kLinear, 0.0, 2};
  const uint32_t a[] = {1, 2, 3};
  const uint32_t b[] = {1, 2, 0};
  EXPECT_DOUBLE_EQ(KernelEval(cfg, a, b, 3), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(KernelEval(cfg, a, a, 3), 1.0);
}

TEST(KernelTest, PolyIsSquaredScaledDot) {
  KernelConfig cfg{KernelType::kPoly, 0.5, 2};
  const uint32_t a[] = {7, 7};
  const uint32_t b[] = {7, 7};
  // matches=2, (0.5*2)^2 = 1.
  EXPECT_DOUBLE_EQ(KernelEval(cfg, a, b, 2), 1.0);
}

TEST(KernelTest, RbfIdentityAndDecay) {
  KernelConfig cfg{KernelType::kRbf, 0.1, 2};
  const uint32_t a[] = {1, 2, 3};
  const uint32_t b[] = {1, 2, 9};
  EXPECT_DOUBLE_EQ(KernelEval(cfg, a, a, 3), 1.0);
  // one mismatch: exp(-0.1 * 2).
  EXPECT_NEAR(KernelEval(cfg, a, b, 3), std::exp(-0.2), 1e-12);
}

TEST(KernelTest, RbfMonotoneInMismatches) {
  KernelConfig cfg{KernelType::kRbf, 0.3, 2};
  const uint32_t a[] = {0, 0, 0, 0};
  const uint32_t one[] = {9, 0, 0, 0};
  const uint32_t two[] = {9, 9, 0, 0};
  EXPECT_GT(KernelEval(cfg, a, one, 4), KernelEval(cfg, a, two, 4));
}

TEST(KernelTest, GramIsSymmetricWithUnitDiagonalForRbf) {
  Rng rng(3);
  const size_t n = 20, d = 5;
  std::vector<uint32_t> rows(n * d);
  for (auto& v : rows) v = static_cast<uint32_t>(rng.UniformInt(4));
  KernelConfig cfg{KernelType::kRbf, 0.2, 2};
  const std::vector<float> gram = test::ComputeGram(cfg, rows, n, d);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(gram[i * n + i], 1.0f);
    for (size_t j = 0; j < n; ++j) {
      EXPECT_FLOAT_EQ(gram[i * n + j], gram[j * n + i]);
    }
  }
}

// ------------------------------------------------------------------- SMO --

TEST(SmoTest, RejectsBadInput) {
  EXPECT_FALSE(test::SolveSmo({}, {}, {}).ok());
  std::vector<float> gram = {1.0f};
  EXPECT_FALSE(test::SolveSmo(gram, {2}, {}).ok());  // bad label
}

TEST(SmoTest, SingleClassDegenerates) {
  std::vector<float> gram = {1.0f, 0.0f, 0.0f, 1.0f};
  Result<SmoSolution> sol = test::SolveSmo(gram, {1, 1}, {});
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol.value().converged);
  EXPECT_EQ(sol.value().num_support_vectors, 0u);
}

TEST(SmoTest, SingleClassSolutionFieldsAreFullyPinned) {
  // The single-class early return must set every SmoSolution field
  // deterministically, not just the ones it happens to touch. It fetches
  // no kernel row and counts no solve.
  std::vector<float> gram = {1.0f, 0.0f, 0.0f, 1.0f};
  for (int8_t label : {int8_t{1}, int8_t{-1}}) {
    test::FullGramRowSource rows(gram, 2);
    const counters::Snapshot start = counters::Read();
    Result<SmoSolution> sol = SolveSmo(rows, {label, label}, {});
    const counters::Snapshot d = counters::Read() - start;
    ASSERT_TRUE(sol.ok());
    const SmoSolution& s = sol.value();
    EXPECT_EQ(s.alpha, std::vector<double>(2, 0.0));
    EXPECT_EQ(s.bias, label > 0 ? 1.0 : -1.0);
    EXPECT_EQ(s.iterations, 0u);
    EXPECT_TRUE(s.converged);
    EXPECT_EQ(s.num_support_vectors, 0u);
    EXPECT_EQ(rows.hits(), 0u);
    EXPECT_EQ(d[Counter::kSmoFits], 0u);
    EXPECT_EQ(d[Counter::kSmoIterations], 0u);
  }
}

TEST(SmoTest, ExhaustedIterationBudgetStillPinsAllFields) {
  // A deliberately starved run (1 pairwise update) exercises the
  // non-converged exit: every field must still be set deterministically.
  std::vector<float> gram = {1.0f, 0.0f, 0.0f, 1.0f};
  SmoConfig cfg;
  cfg.C = 10.0;
  cfg.max_iterations = 1;
  test::FullGramRowSource rows(gram, 2);
  Result<SmoSolution> sol = SolveSmo(rows, {1, -1}, cfg);
  ASSERT_TRUE(sol.ok());
  const SmoSolution& s = sol.value();
  EXPECT_FALSE(s.converged);
  EXPECT_EQ(s.iterations, 1u);
  EXPECT_EQ(s.alpha.size(), 2u);
  EXPECT_GT(s.num_support_vectors, 0u);
  EXPECT_GT(rows.hits(), 0u);  // rows were fetched
}

TEST(SmoTest, SolvesTwoPointProblem) {
  // Two points, k(x,x)=1, k(x,z)=0, labels +1/-1: symmetric solution with
  // alpha_1 = alpha_2 (equality constraint) and margin at both points.
  std::vector<float> gram = {1.0f, 0.0f, 0.0f, 1.0f};
  SmoConfig cfg;
  cfg.C = 10.0;
  Result<SmoSolution> sol = test::SolveSmo(gram, {1, -1}, cfg);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol.value().converged);
  EXPECT_NEAR(sol.value().alpha[0], sol.value().alpha[1], 1e-6);
  EXPECT_GT(sol.value().alpha[0], 0.0);
  // f(x1) = alpha1*k11 - alpha2*k21 + b = alpha1 + b should be ~ +1.
  const double f1 = sol.value().alpha[0] + sol.value().bias;
  EXPECT_NEAR(f1, 1.0, 0.01);
}

TEST(SmoTest, AlphasRespectBoxAndEqualityConstraints) {
  Rng rng(9);
  const size_t n = 60, d = 6;
  std::vector<uint32_t> rows(n * d);
  for (auto& v : rows) v = static_cast<uint32_t>(rng.UniformInt(3));
  std::vector<int8_t> y(n);
  for (size_t i = 0; i < n; ++i) y[i] = rng.Bernoulli(0.5) ? 1 : -1;
  KernelConfig kc{KernelType::kRbf, 0.3, 2};
  SmoConfig cfg;
  cfg.C = 2.0;
  Result<SmoSolution> sol =
      test::SolveSmo(test::ComputeGram(kc, rows, n, d), y, cfg);
  ASSERT_TRUE(sol.ok());
  double eq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GE(sol.value().alpha[i], -1e-9);
    EXPECT_LE(sol.value().alpha[i], cfg.C + 1e-9);
    eq += sol.value().alpha[i] * y[i];
  }
  EXPECT_NEAR(eq, 0.0, 1e-6);
}

// ------------------------------------------- degenerate-curvature update --

/// Independent evaluation of the pair-restricted dual objective
///   psi(a1, a2) = 1/2 k11 a1^2 + 1/2 k22 a2^2 + s k12 a1 a2
///                 + y1 v1 a1 + y2 v2 a2 - a1 - a2,
/// where v1/v2 are the fixed contributions of all other points, recovered
/// from the error-cache values the same way the solver sees them:
///   v1 = (E1 + y1) - b - a1_old y1 k11 - a2_old y2 k12.
/// This re-derives the objective from the dual definition, independently
/// of the f1/f2 algebra inside DegenerateEndpointAj.
double PairObjective(double a1, double a2, double y1, double y2, double k11,
                     double k22, double k12, double v1, double v2) {
  return 0.5 * k11 * a1 * a1 + 0.5 * k22 * a2 * a2 + y1 * y2 * k12 * a1 * a2 +
         y1 * v1 * a1 + y2 * v2 * a2 - a1 - a2;
}

TEST(SmoDegenerateTest, PicksLowerObjectiveEndNotGradientSign) {
  // Near-duplicate same-label pair under float rounding: kii = kjj = 1,
  // kij = 1 + 1e-7, so eta = -2e-7 (concave along the constraint line).
  // Exact duplicates with equal labels have identical errors, so the
  // local gradient term y2*(E1 - E2) is 0 and the old heuristic fell to
  // the lo end; the concave term makes the end FARTHER from aj_old
  // strictly lower, which here is hi. Platt's endpoint evaluation must
  // pick it.
  const double yi = 1.0, yj = 1.0, s = 1.0;
  const double kii = 1.0, kjj = 1.0, kij = 1.0 + 1e-7;
  const double ai_old = 0.5, aj_old = 0.3;
  const double lo = 0.0, hi = 0.8;  // C = 1, same-label box
  const double e = -0.4, bias = 0.25;  // Ei == Ej for duplicates

  const double chosen = DegenerateEndpointAj(lo, hi, ai_old, aj_old, yi, yj,
                                             e, e, bias, kii, kjj, kij);
  EXPECT_EQ(chosen, hi);

  // Independent check that hi really is the lower-objective end (and
  // that the old gradient-sign choice, lo, was the worse end).
  const double v1 = (e + yi) - bias - ai_old * yi * kii - aj_old * yj * kij;
  const double v2 = (e + yj) - bias - ai_old * yi * kij - aj_old * yj * kjj;
  const double a1_at_lo = ai_old + s * (aj_old - lo);
  const double a1_at_hi = ai_old + s * (aj_old - hi);
  const double obj_lo =
      PairObjective(a1_at_lo, lo, yi, yj, kii, kjj, kij, v1, v2);
  const double obj_hi =
      PairObjective(a1_at_hi, hi, yi, yj, kii, kjj, kij, v1, v2);
  EXPECT_LT(obj_hi, obj_lo);
}

TEST(SmoDegenerateTest, TiedEndsStayPut) {
  // Exact duplicates (eta = 0) with equal errors: the objective is
  // constant along the segment, so the update must report no progress
  // (return aj_old) instead of shuffling mass to an arbitrary end.
  const double aj_old = 0.3;
  const double chosen = DegenerateEndpointAj(
      /*lo=*/0.0, /*hi=*/0.8, /*ai_old=*/0.5, aj_old, /*yi=*/1.0,
      /*yj=*/1.0, /*error_i=*/-0.4, /*error_j=*/-0.4, /*bias=*/0.25,
      /*kii=*/1.0, /*kjj=*/1.0, /*kij=*/1.0);
  EXPECT_EQ(chosen, aj_old);
}

TEST(SmoDegenerateTest, LinearCaseAgreesWithGradientSign) {
  // eta exactly 0 with a nonzero gradient: the objective is linear in
  // aj, so the endpoint evaluation must agree with the gradient sign
  // (the regime where the old heuristic was already correct).
  const double lo = 0.0, hi = 0.8;
  // yj*(Ei - Ej) > 0 -> hi under the old rule.
  EXPECT_EQ(DegenerateEndpointAj(lo, hi, 0.5, 0.3, 1.0, 1.0, /*error_i=*/0.4,
                                 /*error_j=*/-0.4, 0.0, 1.0, 1.0, 1.0),
            hi);
  // yj*(Ei - Ej) < 0 -> lo.
  EXPECT_EQ(DegenerateEndpointAj(lo, hi, 0.5, 0.3, 1.0, 1.0, /*error_i=*/-0.4,
                                 /*error_j=*/0.4, 0.0, 1.0, 1.0, 1.0),
            lo);
}

TEST(SmoSnapTest, SnapsOnlyWithinRoundingOfABound) {
  for (const double C : {1.0, 100.0}) {
    const double window = 1e-12 * C;
    // Inside the window on either side of each bound: exactly the bound.
    EXPECT_EQ(SnapToBoxBound(0.0, C), 0.0);
    EXPECT_EQ(SnapToBoxBound(0.5 * window, C), 0.0);
    EXPECT_EQ(SnapToBoxBound(-0.5 * window, C), 0.0);
    EXPECT_EQ(SnapToBoxBound(C, C), C);
    EXPECT_EQ(SnapToBoxBound(C - 0.5 * window, C), C);
    EXPECT_EQ(SnapToBoxBound(C + 0.5 * window, C), C);
    // Outside the window: unchanged, bit for bit.
    EXPECT_EQ(SnapToBoxBound(2.0 * window, C), 2.0 * window);
    EXPECT_EQ(SnapToBoxBound(C - 2.0 * window, C), C - 2.0 * window);
    EXPECT_EQ(SnapToBoxBound(0.5 * C, C), 0.5 * C);
  }
  // The residue a cancelling pair update leaves below C = 1.
  EXPECT_EQ(SnapToBoxBound(1.0 - 1.1e-16, 1.0), 1.0);
}

TEST(SmoDegenerateTest, DuplicateRowProblemStaysStableAndFeasible) {
  // Integration guard: a training set dominated by exactly duplicated
  // rows (every eta for a duplicate pair is exactly 0) must converge
  // without burning the iteration budget shuffling mass between
  // equivalent coordinates, and the solution must stay feasible.
  const size_t d = 3, reps = 8;
  const std::vector<std::vector<uint32_t>> patterns = {
      {0, 1, 2}, {1, 0, 2}, {2, 2, 0}, {0, 0, 1}};
  std::vector<uint32_t> rows;
  std::vector<int8_t> y;
  for (size_t pt = 0; pt < patterns.size(); ++pt) {
    for (size_t r = 0; r < reps; ++r) {
      rows.insert(rows.end(), patterns[pt].begin(), patterns[pt].end());
      // Mixed labels inside two of the duplicate groups force overlap.
      const bool flip = (pt >= 2) && (r % 2 == 1);
      y.push_back(((pt % 2 == 0) != flip) ? 1 : -1);
    }
  }
  const size_t n = y.size();
  KernelConfig kc{KernelType::kRbf, 0.5, 2};
  SmoConfig cfg;
  cfg.C = 4.0;
  Result<SmoSolution> sol =
      test::SolveSmo(test::ComputeGram(kc, rows, n, d), y, cfg);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol.value().converged);
  EXPECT_LT(sol.value().iterations, cfg.max_iterations);
  double eq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GE(sol.value().alpha[i], -1e-9);
    EXPECT_LE(sol.value().alpha[i], cfg.C + 1e-9);
    eq += sol.value().alpha[i] * y[i];
  }
  EXPECT_NEAR(eq, 0.0, 1e-6);
}

// ----------------------------------------------- WSS2 working-set select --

/// simd::SmoSelectJ on a problem given by original index (the oracle's
/// signature): lays the active points out in position order the way the
/// solver does, and maps the chosen position back to its original index
/// (SIZE_MAX for none). Also checks the copied-out row and that the
/// oracle picks the same candidate.
size_t SelectJ(const float* row_i, const float* diag, const double* error,
               const int8_t* y, const double* alpha, double C,
               const int32_t* active, size_t count, double kii,
               double up_best) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> err(count), up_off(count), low_off(count),
      kdiag(count);
  for (size_t k = 0; k < count; ++k) {
    const size_t t = static_cast<size_t>(active[k]);
    err[k] = error[t];
    const bool in_up = (y[t] > 0 && alpha[t] < C) || (y[t] < 0 && alpha[t] > 0);
    const bool in_low =
        (y[t] > 0 && alpha[t] > 0) || (y[t] < 0 && alpha[t] < C);
    up_off[k] = in_up ? 0.0 : -kInf;
    low_off[k] = in_low ? 0.0 : kInf;
    kdiag[k] = diag[t];
  }
  const simd::SmoActiveView view{err.data(),   up_off.data(), low_off.data(),
                                 kdiag.data(), active,        count};
  std::vector<float> row_out(count);
  const size_t k = simd::SmoSelectJ(view, row_i, kii, up_best, row_out.data());
  for (size_t p = 0; p < count; ++p) {
    EXPECT_EQ(row_out[p], row_i[active[p]]) << "position " << p;
  }
  const size_t chosen = k == simd::kNoPosition
                            ? std::numeric_limits<size_t>::max()
                            : static_cast<size_t>(active[k]);
  EXPECT_EQ(chosen, test::SelectWss2J(row_i, diag, error, y, alpha, C,
                                      active, count, kii, up_best));
  return chosen;
}

TEST(SmoWss2SelectTest, TieBreaksToLowestIndexOnEqualGain) {
  // Candidates 1 and 2 are exact clones (same error, diagonal, and row-i
  // entry), so their quadratic gains are bit-identical; candidate 3
  // violates less. The scan must keep the FIRST maximum, i.e. index 1.
  const float row_i[] = {1.0f, 0.2f, 0.2f, 0.2f};
  const float diag[] = {1.0f, 1.0f, 1.0f, 1.0f};
  const double error[] = {-1.0, 0.5, 0.5, 0.2};
  const int8_t y[] = {1, -1, -1, -1};
  const double alpha[] = {0.0, 0.0, 0.0, 0.0};
  const int32_t active[] = {0, 1, 2, 3};
  EXPECT_EQ(SelectJ(row_i, diag, error, y, alpha, /*C=*/10.0, active, 4,
                    /*kii=*/1.0, /*up_best=*/1.0),
            1u);
}

TEST(SmoWss2SelectTest, PicksMaxGainCandidate) {
  // Same setup, but candidate 2 violates harder (larger error), so its
  // gain dominates and it must win despite the higher index.
  const float row_i[] = {1.0f, 0.2f, 0.2f, 0.2f};
  const float diag[] = {1.0f, 1.0f, 1.0f, 1.0f};
  const double error[] = {-1.0, 0.5, 0.8, 0.2};
  const int8_t y[] = {1, -1, -1, -1};
  const double alpha[] = {0.0, 0.0, 0.0, 0.0};
  const int32_t active[] = {0, 1, 2, 3};
  EXPECT_EQ(SelectJ(row_i, diag, error, y, alpha, /*C=*/10.0, active, 4,
                    /*kii=*/1.0, /*up_best=*/1.0),
            2u);
}

TEST(SmoWss2SelectTest, NoViolatingCandidateReturnsSentinel) {
  // Every I_low score meets or exceeds up_best: nothing violates.
  const float row_i[] = {1.0f, 0.2f};
  const float diag[] = {1.0f, 1.0f};
  const double error[] = {-1.0, -1.0};  // score 1.0 == up_best
  const int8_t y[] = {1, -1};
  const double alpha[] = {0.0, 0.0};
  const int32_t active[] = {0, 1};
  EXPECT_EQ(SelectJ(row_i, diag, error, y, alpha, /*C=*/10.0, active, 2,
                    /*kii=*/1.0, /*up_best=*/1.0),
            std::numeric_limits<size_t>::max());
}

TEST(SmoWss2SelectTest, ZeroToleranceStopsAtExactOptimumInsteadOfCrashing) {
  // tolerance = 0 lets SelectPair pass its violation check at an EXACT
  // active-set optimum (up_best == low_best), where no candidate
  // violates strictly and SmoSelectJ returns its sentinel. The solver
  // must treat that as optimality, not index with SIZE_MAX.
  std::vector<float> gram = {1.0f, 0.0f, 0.0f, 1.0f};
  SmoConfig cfg;
  cfg.C = 10.0;
  cfg.tolerance = 0.0;
  const Result<SmoSolution> sol = test::SolveSmo(gram, {1, -1}, cfg);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.value().alpha[0], sol.value().alpha[1], 1e-9);
}

// ------------------------------------------------------------- shrinking --

TEST(SmoShrinkTest, UnshrinkBeforeConvergenceKeepsFullProblemExact) {
  // Overlapping classes (25% flipped labels) with a large C: many points
  // oscillate between the box bounds, so shrink passes (every n
  // iterations at this size) deactivate points that later matter again.
  // The solver must reconstruct the full gradient and unshrink before
  // declaring convergence, so the returned iterate has to satisfy the
  // stopping rule on the FULL problem, recomputed from scratch.
  Rng rng(42);
  const size_t n = 160, d = 6;
  std::vector<uint32_t> rows(n * d);
  for (auto& v : rows) v = static_cast<uint32_t>(rng.UniformInt(4));
  std::vector<int8_t> y(n);
  for (size_t i = 0; i < n; ++i) {
    bool label = rows[i * d] >= 2;
    if (rng.Bernoulli(0.25)) label = !label;
    y[i] = label ? 1 : -1;
  }
  const std::vector<float> gram =
      test::ComputeGram({KernelType::kRbf, 0.15, 2}, rows, n, d);

  SmoConfig cfg;
  cfg.C = 50.0;
  cfg.max_iterations = 2000000;
  const counters::Snapshot start = counters::Read();
  const Result<SmoSolution> sol = test::SolveSmo(gram, y, cfg);
  const counters::Snapshot work = counters::Read() - start;
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol.value().converged);
  // The schedule must have actually exercised shrink AND unshrink —
  // points left the active set and were reconstructed back in.
  EXPECT_GE(work[Counter::kSmoShrinks], 1u);
  EXPECT_GE(work[Counter::kSmoUnshrinks], 1u);
  EXPECT_GT(sol.value().iterations, std::min(n, size_t{1000}));

  // Exactness: tolerance-optimal on the full problem, from scratch
  // (small slack for the float drift between the solver's incremental
  // error cache and this recomputation).
  EXPECT_LT(test::FullProblemViolation(gram, y, sol.value().alpha, cfg.C),
            cfg.tolerance + 1e-6);

  // Feasibility on the full problem.
  double eq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GE(sol.value().alpha[i], -1e-9);
    EXPECT_LE(sol.value().alpha[i], cfg.C + 1e-9);
    eq += sol.value().alpha[i] * y[i];
  }
  EXPECT_NEAR(eq, 0.0, 1e-6);
}

// --------------------------------------------------------- solver totals --

TEST(SmoTotalsTest, GlobalTotalsTrackSolves) {
  std::vector<float> gram = {1.0f, 0.0f, 0.0f, 1.0f};
  SmoConfig cfg;
  cfg.C = 10.0;
  const SmoTotals before = GlobalSmoTotals();
  const Result<SmoSolution> sol = test::SolveSmo(gram, {1, -1}, cfg);
  ASSERT_TRUE(sol.ok());
  const SmoTotals after = GlobalSmoTotals();
  EXPECT_EQ(after.fits - before.fits, 1u);
  EXPECT_EQ(after.iterations - before.iterations, sol.value().iterations);
  EXPECT_EQ(after.unconverged, before.unconverged);  // it converged
  // A budget-starved solve returns converged == false and is counted.
  SmoConfig starved = cfg;
  starved.max_iterations = 1;
  const Result<SmoSolution> cut = test::SolveSmo(gram, {1, -1}, starved);
  ASSERT_TRUE(cut.ok());
  ASSERT_FALSE(cut.value().converged);
  const SmoTotals after_cut = GlobalSmoTotals();
  EXPECT_EQ(after_cut.fits - after.fits, 1u);
  EXPECT_EQ(after_cut.unconverged - after.unconverged, 1u);
}

// ------------------------------------------------------------------- SVM --

Dataset MakeSeparable(size_t n, uint64_t seed) {
  // Feature 0 in {0,1} decides the label; feature 1 is noise.
  Dataset d({{"sig", 2, FeatureRole::kHome, -1},
             {"noise", 3, FeatureRole::kHome, -1}});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = static_cast<uint32_t>(rng.UniformInt(2));
    d.AppendRowUnchecked({s, static_cast<uint32_t>(rng.UniformInt(3))},
                         static_cast<uint8_t>(s));
  }
  return d;
}

Dataset MakeXor(size_t n, uint64_t seed) {
  Dataset d({{"a", 2, FeatureRole::kHome, -1},
             {"b", 2, FeatureRole::kHome, -1}});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.UniformInt(2));
    const uint32_t b = static_cast<uint32_t>(rng.UniformInt(2));
    d.AppendRowUnchecked({a, b}, static_cast<uint8_t>(a ^ b));
  }
  return d;
}

TEST(KernelSvmTest, LinearSeparatesLinearlySeparableData) {
  Dataset data = MakeSeparable(200, 1);
  DataView view(&data);
  SvmConfig cfg;
  cfg.kernel.type = KernelType::kLinear;
  cfg.C = 10.0;
  KernelSvm svm(cfg);
  ASSERT_TRUE(svm.Fit(view).ok());
  EXPECT_DOUBLE_EQ(Accuracy(svm, view), 1.0);
}

TEST(KernelSvmTest, RbfLearnsXor) {
  Dataset data = MakeXor(200, 2);
  DataView view(&data);
  SvmConfig cfg;
  cfg.kernel.type = KernelType::kRbf;
  cfg.kernel.gamma = 1.0;
  cfg.C = 10.0;
  KernelSvm svm(cfg);
  ASSERT_TRUE(svm.Fit(view).ok());
  EXPECT_DOUBLE_EQ(Accuracy(svm, view), 1.0);
}

TEST(KernelSvmTest, PolyLearnsXor) {
  Dataset data = MakeXor(200, 3);
  DataView view(&data);
  SvmConfig cfg;
  cfg.kernel.type = KernelType::kPoly;
  cfg.kernel.gamma = 1.0;
  cfg.C = 10.0;
  KernelSvm svm(cfg);
  ASSERT_TRUE(svm.Fit(view).ok());
  EXPECT_GE(Accuracy(svm, view), 0.95);
}

TEST(KernelSvmTest, SingleClassPredictsThatClass) {
  Dataset d({{"f", 2, FeatureRole::kHome, -1}});
  for (int i = 0; i < 10; ++i) {
    d.AppendRowUnchecked({static_cast<uint32_t>(i % 2)}, 1);
  }
  KernelSvm svm;
  ASSERT_TRUE(svm.Fit(DataView(&d)).ok());
  EXPECT_EQ(svm.Predict(DataView(&d), 0), 1);
}

TEST(KernelSvmTest, MaxTrainRowsCapsProblemSize) {
  Dataset data = MakeSeparable(500, 4);
  DataView view(&data);
  SvmConfig cfg;
  cfg.kernel.type = KernelType::kLinear;
  cfg.max_train_rows = 50;
  KernelSvm svm(cfg);
  ASSERT_TRUE(svm.Fit(view).ok());
  EXPECT_LE(svm.num_support_vectors(), 50u);
  EXPECT_GE(Accuracy(svm, view), 0.99);  // still separable
}

TEST(KernelSvmTest, DecisionValueSignMatchesPrediction) {
  Dataset data = MakeSeparable(100, 5);
  DataView view(&data);
  KernelSvm svm({{KernelType::kRbf, 0.5, 2}, 1.0, 1e-3, 20000, 0});
  ASSERT_TRUE(svm.Fit(view).ok());
  const CodeMatrix m(view);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(svm.Predict(view, i),
              svm.DecisionValueOfCodes(m.row(i)) >= 0 ? 1 : 0);
  }
}

TEST(KernelSvmTest, EmptyTrainingFails) {
  Dataset data = MakeSeparable(10, 6);
  DataView empty(&data, {}, {0, 1});
  KernelSvm svm;
  EXPECT_FALSE(svm.Fit(empty).ok());
}

TEST(KernelSvmTest, Names) {
  SvmConfig lin;
  lin.kernel.type = KernelType::kLinear;
  EXPECT_EQ(KernelSvm(lin).name(), "svm-linear");
  SvmConfig rbf;
  rbf.kernel.type = KernelType::kRbf;
  EXPECT_EQ(KernelSvm(rbf).name(), "svm-rbf");
}

// Parameterised generalisation sweep: for several (C, gamma) settings the
// RBF-SVM must beat majority guessing out of sample on learnable data.
class SvmGridTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SvmGridTest, GeneralisesAboveMajority) {
  const auto [C, gamma] = GetParam();
  Dataset train = MakeXor(300, 7);
  Dataset test = MakeXor(200, 8);
  SvmConfig cfg;
  cfg.kernel.type = KernelType::kRbf;
  cfg.kernel.gamma = gamma;
  cfg.C = C;
  KernelSvm svm(cfg);
  ASSERT_TRUE(svm.Fit(DataView(&train)).ok());
  const double acc = Accuracy(svm, DataView(&test));
  // The weakest grid corner (C=0.1, gamma=0.1) legitimately underfits XOR
  // (too little capacity); it must still be stable. All stronger settings
  // must actually learn the concept.
  if (C * gamma <= 0.011) {
    EXPECT_GE(acc, 0.45);
  } else {
    EXPECT_GT(acc, 0.9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperGridCorners, SvmGridTest,
    ::testing::Combine(::testing::Values(0.1, 1.0, 100.0),
                       ::testing::Values(0.1, 1.0)));

// ------------------------------------------------------- scoring blocks --

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// An RBF model with one support vector, built through LoadBody (a fit
/// always keeps at least one support vector per class).
std::unique_ptr<KernelSvm> OneSupportVectorModel(
    const std::vector<uint32_t>& domains, const std::vector<uint32_t>& sv) {
  std::stringstream body;
  io::ModelWriter writer(body);
  writer.WriteU32(static_cast<uint32_t>(KernelType::kRbf));
  writer.WriteF64(0.3);
  writer.WriteI32(2);
  writer.WriteU64(domains.size());
  writer.WriteU8(0);  // not constant
  writer.WriteU8(0);
  writer.WriteU8(1);  // converged
  writer.WriteF64(-0.375);
  writer.WriteF64Vec({0.8125});
  writer.WriteU32Vec(sv);
  EXPECT_TRUE(writer.status().ok());
  io::ModelReader reader(body);
  Result<std::unique_ptr<KernelSvm>> model =
      KernelSvm::LoadBody(reader, domains);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  if (!model.ok()) return nullptr;
  model.value()->RestoreTrainDomains(domains);
  return std::move(model.value());
}

// PredictAll and DecisionValuesOfCodes score four rows per pass over the
// support vectors, then the tail one row at a time. Over views of 0 to 9
// rows (every tail of the block), each block value must have the bits of
// the one-row DecisionValueOfCodes and of the plain sum bias +
// coeff[s] * K(sv_s, x) in SV order, and PredictAll must equal the
// per-row Predict: for a many-SV fit, a one-SV model and a single-class
// model.
TEST(SvmScoreBlockTest, BlocksMatchOneRowScoresForEveryTail) {
  const Dataset data = test::MakeParityDataset(90, {6, 3, 8, 4, 5}, 41);
  const test::ParityViews views = test::MakeParityViews(data, 43);
  const std::vector<uint32_t> domains = CodeMatrix(views.train).domain_sizes();

  SvmConfig cfg;
  cfg.kernel = {KernelType::kRbf, 0.3, 2};
  KernelSvm fitted(cfg);
  ASSERT_TRUE(fitted.Fit(views.train).ok());
  ASSERT_GT(fitted.num_support_vectors(), 8u);

  const CodeMatrix train_codes(views.train);
  const std::vector<uint32_t> first_row(train_codes.row(0),
                                        train_codes.row(0) + domains.size());
  const std::unique_ptr<KernelSvm> one_sv =
      OneSupportVectorModel(domains, first_row);
  ASSERT_NE(one_sv, nullptr);
  ASSERT_EQ(one_sv->num_support_vectors(), 1u);

  std::vector<uint32_t> one_class_rows;
  for (size_t i = 0; i < views.train.num_rows(); ++i) {
    if (views.train.label(i) == 1) {
      one_class_rows.push_back(views.train.rows()[i]);
    }
  }
  KernelSvm single_class(cfg);
  ASSERT_TRUE(single_class
                  .Fit(DataView(&data, one_class_rows,
                                views.train.features()))
                  .ok());

  const struct {
    const char* name;
    const KernelSvm* model;
  } models[] = {{"fitted", &fitted},
                {"one-sv", one_sv.get()},
                {"single-class", &single_class}};
  for (const auto& m : models) {
    const size_t d = domains.size();
    for (size_t rows = 0; rows <= 9; ++rows) {
      SCOPED_TRACE(std::string(m.name) + " rows=" + std::to_string(rows));
      const DataView view(
          &data,
          std::vector<uint32_t>(views.test.rows().begin(),
                                views.test.rows().begin() +
                                    static_cast<long>(rows)),
          views.test.features());
      const std::vector<uint8_t> all = m.model->PredictAll(view);
      ASSERT_EQ(all.size(), rows);
      const CodeMatrix codes(view);
      std::vector<double> block(rows + 1, -1.0);
      m.model->DecisionValuesOfCodes(codes.codes().data(), rows, block.data());
      EXPECT_EQ(block[rows], -1.0) << "wrote past the last row";
      const std::vector<uint32_t>& sv = m.model->support_vector_codes();
      const std::vector<double>& coeff = m.model->coefficients();
      for (size_t i = 0; i < rows; ++i) {
        EXPECT_EQ(all[i], m.model->Predict(view, i)) << "row " << i;
        const double one_row = m.model->DecisionValueOfCodes(codes.row(i));
        EXPECT_EQ(Bits(block[i]), Bits(one_row)) << "row " << i;
        if (m.model == &single_class) continue;
        double oracle = m.model->bias();
        for (size_t s = 0; s < coeff.size(); ++s) {
          oracle += coeff[s] * KernelEval(cfg.kernel, sv.data() + s * d,
                                          codes.row(i), d);
        }
        EXPECT_EQ(Bits(block[i]), Bits(oracle)) << "row " << i;
        EXPECT_EQ(all[i], block[i] >= 0.0 ? 1 : 0) << "row " << i;
      }
    }
  }
}

// A single-class refit must leave nothing of the earlier fit behind: the
// decision values equal a fresh single-class model's, and scoring reads
// only the new fit's features (an earlier 40-feature layout used to pack
// 40 codes from each 2-code query).
TEST(SvmScoreBlockTest, SingleClassRefitForgetsTheEarlierFit) {
  const Dataset wide =
      test::MakeParityDataset(60, std::vector<uint32_t>(40, 3), 47);
  Dataset narrow({{"a", 3, FeatureRole::kHome, -1},
                  {"b", 3, FeatureRole::kHome, -1}});
  for (uint32_t i = 0; i < 10; ++i) narrow.AppendRowUnchecked({i % 3, 1}, 1);
  KernelSvm refit;
  ASSERT_TRUE(refit.Fit(DataView(&wide)).ok());
  ASSERT_GT(refit.num_support_vectors(), 0u);
  ASSERT_NE(refit.bias(), 0.0);
  ASSERT_TRUE(refit.Fit(DataView(&narrow)).ok());
  KernelSvm fresh;
  ASSERT_TRUE(fresh.Fit(DataView(&narrow)).ok());

  const CodeMatrix codes{DataView(&narrow)};
  std::vector<double> refit_values(codes.num_rows());
  std::vector<double> fresh_values(codes.num_rows());
  refit.DecisionValuesOfCodes(codes.codes().data(), codes.num_rows(),
                              refit_values.data());
  fresh.DecisionValuesOfCodes(codes.codes().data(), codes.num_rows(),
                              fresh_values.data());
  for (size_t i = 0; i < codes.num_rows(); ++i) {
    EXPECT_EQ(Bits(refit_values[i]), Bits(fresh_values[i])) << "row " << i;
    const std::vector<uint32_t> query(codes.row(i), codes.row(i) + 2);
    EXPECT_EQ(Bits(refit.DecisionValueOfCodes(query.data())),
              Bits(fresh.DecisionValueOfCodes(query.data())));
  }
  EXPECT_EQ(refit.bias(), fresh.bias());
  EXPECT_EQ(refit.PredictAll(DataView(&narrow)),
            fresh.PredictAll(DataView(&narrow)));
}

}  // namespace
}  // namespace ml
}  // namespace hamlet
