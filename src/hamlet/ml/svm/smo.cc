#include "hamlet/ml/svm/smo.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace hamlet {
namespace ml {

namespace {

/// Process-wide SMO totals, accumulated when solves finish. Relaxed
/// atomics: concurrent grid-search fits only share the sums; readers
/// (bench reporting) run after the fits.
std::atomic<uint64_t> g_smo_fits{0};
std::atomic<uint64_t> g_smo_iterations{0};
std::atomic<uint64_t> g_smo_shrink_events{0};
std::atomic<uint64_t> g_smo_unshrink_events{0};
std::atomic<uint64_t> g_smo_unconverged{0};

}  // namespace

SmoTotals GlobalSmoTotals() {
  SmoTotals totals;
  totals.fits = g_smo_fits.load(std::memory_order_relaxed);
  totals.iterations = g_smo_iterations.load(std::memory_order_relaxed);
  totals.shrink_events =
      g_smo_shrink_events.load(std::memory_order_relaxed);
  totals.unshrink_events =
      g_smo_unshrink_events.load(std::memory_order_relaxed);
  totals.unconverged = g_smo_unconverged.load(std::memory_order_relaxed);
  return totals;
}

void ResetGlobalSmoTotals() {
  g_smo_fits.store(0, std::memory_order_relaxed);
  g_smo_iterations.store(0, std::memory_order_relaxed);
  g_smo_shrink_events.store(0, std::memory_order_relaxed);
  g_smo_unshrink_events.store(0, std::memory_order_relaxed);
  g_smo_unconverged.store(0, std::memory_order_relaxed);
}

double DegenerateEndpointAj(double lo, double hi, double ai_old,
                            double aj_old, double yi, double yj,
                            double error_i, double error_j, double bias,
                            double kii, double kjj, double kij) {
  // Pair-restricted dual objective (others fixed, constants dropped):
  //   psi(a1, a2) = 1/2 kii a1^2 + 1/2 kjj a2^2 + s kij a1 a2
  //                 + f1 a1 + f2 a2
  // with a1 tied to a2 by the equality constraint. f1/f2 follow Platt's
  // pseudocode (§12.2.1) with the bias sign flipped for our f = sum + b
  // convention (Platt uses u = w.x - b).
  const double s = yi * yj;
  const double f1 = yi * (error_i - bias) - ai_old * kii - s * aj_old * kij;
  const double f2 = yj * (error_j - bias) - s * ai_old * kij - aj_old * kjj;
  const double l1 = ai_old + s * (aj_old - lo);
  const double h1 = ai_old + s * (aj_old - hi);
  const double lobj = 0.5 * l1 * l1 * kii + 0.5 * lo * lo * kjj +
                      s * lo * l1 * kij + l1 * f1 + lo * f2;
  const double hobj = 0.5 * h1 * h1 * kii + 0.5 * hi * hi * kjj +
                      s * hi * h1 * kij + h1 * f1 + hi * f2;
  // Minimise; a tie within rounding noise means no progress at either
  // end, so stay put (the caller's no-movement check then returns false
  // instead of shuffling mass between equivalent iterates).
  const double eps =
      1e-12 * (std::abs(lobj) + std::abs(hobj) + 1.0);
  if (lobj < hobj - eps) return lo;
  if (hobj < lobj - eps) return hi;
  return aj_old;
}

double SnapToBoxBound(double a, double C) {
  const double eps = 1e-12 * C;
  if (std::abs(a) <= eps) return 0.0;
  if (std::abs(C - a) <= eps) return C;
  return a;
}

size_t SelectWss2J(const float* row_i, const float* diag,
                   const double* error, const int8_t* y,
                   const double* alpha, double C, const int32_t* active,
                   size_t active_count, double kii, double up_best) {
  // LIBSVM WSS2: among violating I_low candidates, maximise
  //   (b_t)^2 / a_t,  b_t = up_best - score_t > 0,
  //   a_t = kii + K_tt - 2 K_it clamped below by tau
  // (the constant factor 2 in the paper's gain is argmax-invariant).
  // Strict > keeps the first maximum, so equal-gain candidates resolve
  // to the lowest original index.
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
    // The gain test goes first: it rarely passes once a strong candidate
    // is found, so the data-dependent candidacy tests are mostly skipped.
    if (gain > best_gain && diff > 0.0 &&
        ((y[t] > 0 && alpha[t] > 0.0) || (y[t] < 0 && alpha[t] < C))) {
      best_gain = gain;
      best = t;
    }
  }
  return best;
}

namespace {

/// The feasible segment [lo, hi] of alpha_j for a pair step along the
/// equality constraint; false when it is empty or a single point.
inline bool PairBox(double yi, double yj, double ai_old, double aj_old,
                    double C, double& lo, double& hi) {
  if (yi != yj) {
    lo = std::max(0.0, aj_old - ai_old);
    hi = std::min(C, C + aj_old - ai_old);
  } else {
    lo = std::max(0.0, ai_old + aj_old - C);
    hi = std::min(C, ai_old + aj_old);
  }
  return !(lo >= hi);
}

/// The analytic pair step (Platt) inside [lo, hi]: sets aj_new and returns
/// true, or returns false when the step is below the no-progress
/// threshold. Pure, so the fallback scan can probe partners with exactly
/// the arithmetic a committed update performs.
inline bool PairStep(double lo, double hi, double ai_old, double aj_old,
                     double yi, double yj, double error_i, double error_j,
                     double bias, double kii, double kjj, double kij,
                     double& aj_new) {
  const double eta = kii + kjj - 2.0 * kij;
  if (eta > 1e-12) {
    aj_new = aj_old + yj * (error_i - error_j) / eta;
    aj_new = std::clamp(aj_new, lo, hi);
  } else {
    // Degenerate curvature (duplicate or near-duplicate rows): the pair
    // objective is linear or concave along the constraint line, so
    // evaluate it at both clipped ends and take the lower (Platt).
    aj_new = DegenerateEndpointAj(lo, hi, ai_old, aj_old, yi, yj, error_i,
                                  error_j, bias, kii, kjj, kij);
  }
  return !(std::abs(aj_new - aj_old) < 1e-12 * (aj_new + aj_old + 1e-12));
}

/// SMO state: alpha, the error cache (f(x_i) - y_i) and the active set.
struct Solver {
  KernelRowSource& rows;
  const std::vector<int8_t>& y;
  const SmoConfig& cfg;
  size_t n;
  std::vector<double> alpha;
  std::vector<double> error;  // f(x_i) - y_i; with alpha = 0, f = bias = 0
  std::vector<float> row_i;   // scratch copy of kernel row i (see below)
  std::vector<int32_t> active;    // ascending original indices
  std::vector<uint8_t> in_active;  // n flags mirroring `active`
  bool shrunk = false;             // active.size() < n
  bool aggressive_unshrunk = false;  // one-time 10x-tolerance unshrink
  size_t shrink_events = 0;
  size_t unshrink_events = 0;
  double bias = 0.0;

  Solver(KernelRowSource& kernel_rows, const std::vector<int8_t>& labels,
         const SmoConfig& config)
      : rows(kernel_rows), y(labels), cfg(config), n(labels.size()),
        alpha(n, 0.0), error(n),
        row_i(n), active(n), in_active(n, 1) {
    for (size_t i = 0; i < n; ++i) error[i] = -static_cast<double>(y[i]);
    std::iota(active.begin(), active.end(), 0);
  }

  bool InUp(size_t t) const {
    return (y[t] > 0 && alpha[t] < cfg.C) || (y[t] < 0 && alpha[t] > 0.0);
  }
  bool InLow(size_t t) const {
    return (y[t] > 0 && alpha[t] > 0.0) || (y[t] < 0 && alpha[t] < cfg.C);
  }

  /// Max up-score / min low-score over the active set (the violation
  /// m - M drives both the stopping rule and the shrink thresholds).
  void ScanScores(double& up_best, size_t& up_idx, double& low_best,
                  size_t& low_idx) const {
    up_best = -std::numeric_limits<double>::infinity();
    low_best = std::numeric_limits<double>::infinity();
    up_idx = n;
    low_idx = n;
    for (size_t k = 0; k < active.size(); ++k) {
      const size_t t = static_cast<size_t>(active[k]);
      const double score = -error[t];
      // The score test goes first: it rarely passes once the extremes
      // settle, so the data-dependent set tests are mostly skipped.
      if (score > up_best && InUp(t)) {
        up_best = score;
        up_idx = t;
      }
      if (score < low_best && InLow(t)) {
        low_best = score;
        low_idx = t;
      }
    }
  }

  /// Selects the working pair over the active set; returns false at the
  /// active-set optimum (caller decides whether that is global). With
  /// error_t = f(x_t) - y_t, the LIBSVM selection score -y_t grad_t
  /// equals -error_t up to a constant bias shift that cancels in every
  /// comparison.
  bool SelectPair(size_t& out_i, size_t& out_j) {
    double up_best, low_best;
    size_t up_idx, low_idx;
    ScanScores(up_best, up_idx, low_best, low_idx);
    if (up_idx == n || low_idx == n) return false;
    if (up_best - low_best < cfg.tolerance) return false;
    // WSS2: fetch i's kernel row once and pick j by quadratic gain. The
    // row is read in place (no need to survive a second fetch here);
    // UpdatePair re-fetches it, which is a cache hit for any source
    // that can hold a row.
    const float* gi = rows.Row(up_idx);
    const size_t j = SelectWss2J(gi, rows.Diag(), error.data(), y.data(),
                                 alpha.data(), cfg.C, active.data(),
                                 active.size(),
                                 static_cast<double>(rows.Diag()[up_idx]),
                                 up_best);
    if (j == std::numeric_limits<size_t>::max()) {
      // No candidate violates STRICTLY (diff > 0). With tolerance > 0
      // the check above guarantees one, but a caller-supplied
      // tolerance <= 0 reaches here at an exact active-set optimum —
      // report optimality rather than indexing with the sentinel.
      return false;
    }
    out_i = up_idx;
    out_j = j;
    return true;
  }

  /// Analytic two-variable update (Platt). Returns false if no progress.
  bool UpdatePair(size_t i, size_t j) {
    if (i == j) return false;
    const double yi = y[i], yj = y[j];
    const double ai_old = alpha[i], aj_old = alpha[j];
    double lo, hi;
    if (!PairBox(yi, yj, ai_old, aj_old, cfg.C, lo, hi)) return false;

    // Probe the three kernel entries the step-size computation needs as
    // single O(d) evaluations (bit-identical to the row entries) so a
    // box-clipped pair never pays for full row fetches.
    const double kii = rows.At(i, i), kjj = rows.At(j, j),
                 kij = rows.At(i, j);
    double aj_new;
    if (!PairStep(lo, hi, ai_old, aj_old, yi, yj, error[i], error[j], bias,
                  kii, kjj, kij, aj_new)) {
      return false;
    }

    // Committed: fetch both kernel rows for the error-cache refresh. A
    // source that cannot hold two rows at once (a 1-row cache reuses
    // its storage immediately) has row i staged through a scratch copy
    // first. Either way the arithmetic below reads the same float
    // values in the same order as the full-Gram solver, keeping the
    // iterate sequence bit-identical for any row source and cache size.
    const float* gi = rows.Row(i);
    if (!rows.CanServeTwoRows()) {
      std::copy_n(gi, n, row_i.begin());
      gi = row_i.data();
    }
    const float* gj = rows.Row(j);

    // Snapped before it is stored, so the bias branch and the error
    // refresh below see the value alpha[i] holds.
    const double ai_new =
        SnapToBoxBound(ai_old + yi * yj * (aj_old - aj_new), cfg.C);
    alpha[i] = ai_new;
    alpha[j] = aj_new;

    // Intercept update (standard SMO bookkeeping).
    const double b1 = bias - error[i] - yi * (ai_new - ai_old) * kii -
                      yj * (aj_new - aj_old) * kij;
    const double b2 = bias - error[j] - yi * (ai_new - ai_old) * kij -
                      yj * (aj_new - aj_old) * kjj;
    double new_bias;
    if (ai_new > 0.0 && ai_new < cfg.C) {
      new_bias = b1;
    } else if (aj_new > 0.0 && aj_new < cfg.C) {
      new_bias = b2;
    } else {
      new_bias = 0.5 * (b1 + b2);
    }
    const double delta_b = new_bias - bias;
    bias = new_bias;

    // Refresh the error cache over the active set: O(active) with the
    // two fetched rows. Inactive errors go stale by design; Unshrink
    // reconstructs them from scratch before they are ever read again.
    const double di = yi * (ai_new - ai_old);
    const double dj = yj * (aj_new - aj_old);
    for (size_t k = 0; k < active.size(); ++k) {
      const size_t t = static_cast<size_t>(active[k]);
      error[t] += di * gi[t] + dj * gj[t] + delta_b;
    }
    return true;
  }

  /// Reconstructs the full error cache and reactivates every point.
  /// Stale inactive errors are recomputed from scratch —
  ///   error[t] = sum_s alpha_s y_s K_st + bias - y_t
  /// accumulated in ascending s over full kernel rows — so the values
  /// (and everything downstream) are independent of the cache budget.
  /// Active errors keep their incrementally maintained values.
  void Unshrink() {
    if (!shrunk) return;
    rows.ClearActiveRestriction();
    for (size_t t = 0; t < n; ++t) {
      if (!in_active[t]) error[t] = bias - static_cast<double>(y[t]);
    }
    for (size_t s = 0; s < n; ++s) {
      if (alpha[s] == 0.0) continue;
      const float* gs = rows.Row(s);
      const double c = alpha[s] * static_cast<double>(y[s]);
      for (size_t t = 0; t < n; ++t) {
        if (!in_active[t]) error[t] += c * static_cast<double>(gs[t]);
      }
    }
    active.resize(n);
    std::iota(active.begin(), active.end(), 0);
    std::fill(in_active.begin(), in_active.end(), uint8_t{1});
    shrunk = false;
    ++unshrink_events;
  }

  /// Periodic shrink pass (LIBSVM do_shrinking): once the active
  /// violation falls within 10x tolerance, reconstruct and unshrink
  /// aggressively (one time), then deactivate bound-pinned points whose
  /// score can no longer enter the working set — an I_up-only point
  /// with score below the min low-score, or an I_low-only point with
  /// score above the max up-score.
  void DoShrink() {
    double up_best, low_best;
    size_t up_idx, low_idx;
    ScanScores(up_best, up_idx, low_best, low_idx);
    if (up_idx == n || low_idx == n) return;  // SelectPair handles this
    if (!aggressive_unshrunk && up_best - low_best <= cfg.tolerance * 10) {
      aggressive_unshrunk = true;
      Unshrink();
      ScanScores(up_best, up_idx, low_best, low_idx);
      if (up_idx == n || low_idx == n) return;
    }
    size_t kept = 0;
    for (size_t k = 0; k < active.size(); ++k) {
      const size_t t = static_cast<size_t>(active[k]);
      const bool up = InUp(t), low = InLow(t);
      const double score = -error[t];
      bool drop = false;
      if (up && !low) {
        drop = score < low_best;
      } else if (low && !up) {
        drop = score > up_best;
      }
      if (drop) {
        in_active[t] = 0;
      } else {
        active[kept++] = active[k];
      }
    }
    if (kept < active.size()) {
      active.resize(kept);
      shrunk = active.size() < n;
      ++shrink_events;
      rows.RestrictActive(active.data(), active.size());
    }
  }

  /// The first active partner t (t != i, j) that can move with the pinned
  /// end p — as UpdatePair(p, t) when kPinnedFirst, else as
  /// UpdatePair(t, p) — or n when none can. Each probe runs UpdatePair's
  /// own rejection tests (PairBox, PairStep) on the same values, but with
  /// p's kernel row, label, alpha and error read once and nothing fetched,
  /// counted or committed: a stuck iteration that probes every partner
  /// costs O(active) loads instead of O(active) virtual kernel lookups.
  template <bool kPinnedFirst>
  [[gnu::noinline]] size_t FirstMovablePartner(size_t p, size_t i,
                                               size_t j) const {
    // Out of line and over raw locals, so the loop's operands stay in
    // registers instead of spilling around the solver's main loop.
    const float* row_p = rows.PeekRow(p);
    const float* diag = rows.Diag();
    const int8_t* ys = y.data();
    const double* as = alpha.data();
    const double* es = error.data();
    const int32_t* act = active.data();
    const size_t count = active.size();
    const double C = cfg.C, b = bias;
    const double yp = ys[p], ap = as[p], ep = es[p], kpp = diag[p];
    for (size_t k = 0; k < count; ++k) {
      const size_t t = static_cast<size_t>(act[k]);
      if (t == i || t == j) continue;
      const double yt = ys[t], at = as[t];
      double lo, hi, aj_new;
      if (kPinnedFirst) {
        if (!PairBox(yp, yt, ap, at, C, lo, hi)) continue;
        const double kpt = row_p != nullptr ? row_p[t] : rows.At(p, t);
        if (PairStep(lo, hi, ap, at, yp, yt, ep, es[t], b, kpp, diag[t],
                     kpt, aj_new)) {
          return t;
        }
      } else {
        if (!PairBox(yt, yp, at, ap, C, lo, hi)) continue;
        const double ktp = row_p != nullptr ? row_p[t] : rows.At(t, p);
        if (PairStep(lo, hi, at, ap, yt, yp, es[t], ep, b, diag[t], kpp,
                     ktp, aj_new)) {
          return t;
        }
      }
    }
    return n;
  }

  /// The rescue for a blocked maximal pair: the first partner, in active
  /// order, that moves with i, else the first that moves with j. Only
  /// that one update is committed.
  bool FallbackScan(size_t i, size_t j) {
    if (const size_t t = FirstMovablePartner<true>(i, i, j); t != n) {
      const bool moved = UpdatePair(i, t);
      assert(moved);
      return moved;
    }
    if (const size_t t = FirstMovablePartner<false>(j, i, j); t != n) {
      const bool moved = UpdatePair(t, j);
      assert(moved);
      return moved;
    }
    return false;
  }
};

}  // namespace

Result<SmoSolution> SolveSmo(KernelRowSource& rows,
                             const std::vector<int8_t>& y,
                             const SmoConfig& config) {
  const size_t n = y.size();
  if (n == 0) return Status::InvalidArgument("empty problem");
  if (rows.size() != n) {
    return Status::InvalidArgument("kernel row source size != n");
  }
  bool has_pos = false, has_neg = false;
  for (int8_t v : y) {
    if (v == 1) has_pos = true;
    else if (v == -1) has_neg = true;
    else return Status::InvalidArgument("labels must be -1/+1");
  }

  SmoSolution sol;
  sol.alpha.assign(n, 0.0);
  if (!has_pos || !has_neg) {
    // Single-class training data: the zero solution with a bias at the
    // majority label is the natural degenerate answer. Pin every field:
    // no pairwise updates ran and no kernel row was ever fetched.
    sol.bias = has_pos ? 1.0 : -1.0;
    sol.iterations = 0;
    sol.converged = true;
    sol.num_support_vectors = 0;
    sol.cache_hits = 0;
    sol.cache_misses = 0;
    sol.shrink_events = 0;
    sol.unshrink_events = 0;
    return sol;
  }

  Solver solver(rows, y, config);
  const size_t shrink_period = std::min(n, size_t{1000});
  size_t shrink_counter = shrink_period;
  size_t it = 0;
  for (; it < config.max_iterations; ++it) {
    if (--shrink_counter == 0) {
      solver.DoShrink();
      shrink_counter = shrink_period;
    }
    size_t i = 0, j = 0;
    if (!solver.SelectPair(i, j)) {
      // Optimal on the active set. If shrunk, that is only a candidate
      // optimum: reconstruct the full gradient, unshrink, and re-check
      // before declaring convergence (LIBSVM's exactness rule).
      if (solver.shrunk) {
        solver.Unshrink();
        shrink_counter = 1;  // re-shrink at the next opportunity
        if (!solver.SelectPair(i, j)) {
          sol.converged = true;
          break;
        }
      } else {
        sol.converged = true;
        break;
      }
    }
    if (!solver.UpdatePair(i, j)) {
      // The selected pair can be blocked by box clipping under float
      // rounding. Try other partners before giving up (LIBSVM shrinks
      // instead; a linear fallback scan is enough at our problem sizes).
      if (!solver.FallbackScan(i, j)) {
        if (solver.shrunk) {
          // Points outside the active set may unblock the pair. Delay
          // the next shrink by a full period — an immediate re-shrink
          // would deterministically re-drop the same points before the
          // full set was ever scanned, looping unshrink/shrink until
          // the iteration budget burned out.
          solver.Unshrink();
          shrink_counter = shrink_period;
          continue;
        }
        // Numerically stuck: accept the current iterate.
        break;
      }
    }
  }
  // A shrunk final iterate (iteration budget exhausted) still reports
  // authoritative alpha/bias, but the caller-owned row source must not
  // be handed back with the restriction still installed — a later solve
  // over the same source would read stale non-restricted columns.
  if (solver.shrunk) rows.ClearActiveRestriction();
  sol.alpha = std::move(solver.alpha);
  sol.bias = solver.bias;
  sol.iterations = it;
  sol.num_support_vectors = 0;
  for (double a : sol.alpha) sol.num_support_vectors += a > 1e-10;
  sol.cache_hits = rows.hits();
  sol.cache_misses = rows.misses();
  sol.shrink_events = solver.shrink_events;
  sol.unshrink_events = solver.unshrink_events;
  g_smo_fits.fetch_add(1, std::memory_order_relaxed);
  g_smo_iterations.fetch_add(it, std::memory_order_relaxed);
  g_smo_shrink_events.fetch_add(solver.shrink_events,
                                std::memory_order_relaxed);
  g_smo_unshrink_events.fetch_add(solver.unshrink_events,
                                  std::memory_order_relaxed);
  if (!sol.converged) {
    g_smo_unconverged.fetch_add(1, std::memory_order_relaxed);
  }
  return sol;
}

Result<SmoSolution> SolveSmo(const std::vector<float>& gram,
                             const std::vector<int8_t>& y,
                             const SmoConfig& config) {
  const size_t n = y.size();
  if (n == 0) return Status::InvalidArgument("empty problem");
  if (gram.size() != n * n) {
    return Status::InvalidArgument("gram size != n*n");
  }
  FullGramRowSource rows(gram, n);
  return SolveSmo(rows, y, config);
}

}  // namespace ml
}  // namespace hamlet
