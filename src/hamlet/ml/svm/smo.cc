#include "hamlet/ml/svm/smo.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "hamlet/common/counters.h"
#include "hamlet/simd/simd.h"

namespace hamlet {
namespace ml {

using counters::Counter;

SmoTotals GlobalSmoTotals() {
  const counters::Snapshot now = counters::Read();
  return {now[Counter::kSmoFits], now[Counter::kSmoIterations],
          now[Counter::kSmoShrinks], now[Counter::kSmoUnshrinks],
          now[Counter::kSmoUnconverged]};
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

void ReconstructErrors(KernelRowSource& rows, const std::vector<int8_t>& y,
                       const std::vector<double>& alpha, double bias,
                       const int32_t* indices, size_t count,
                       double* errors) {
  for (size_t k = 0; k < count; ++k) {
    errors[k] = bias - static_cast<double>(y[static_cast<size_t>(indices[k])]);
  }
  // Each point gets the same additions, in the same ascending-s order, as
  // a loop over every t that skips the active ones; only the listed
  // points are visited.
  for (size_t s = 0; s < alpha.size(); ++s) {
    if (alpha[s] == 0.0) continue;
    const float* gs = rows.Row(s);
    const double c = alpha[s] * static_cast<double>(y[s]);
    for (size_t k = 0; k < count; ++k) {
      errors[k] += c * static_cast<double>(gs[static_cast<size_t>(indices[k])]);
    }
  }
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

/// SMO state: alpha by original index, and the active set with its
/// per-point state in active-position order (see smo.h).
struct Solver {
  static constexpr int32_t kInactive = -1;
  static constexpr size_t kNone = simd::kNoPosition;

  KernelRowSource& rows;
  const std::vector<int8_t>& y;
  const SmoConfig& cfg;
  size_t n;
  std::vector<double> alpha;
  // f(x_t) - y_t by original index; with alpha = 0, f = bias = 0. Holds
  // the starting errors and Unshrink's reconstruction; between those,
  // the authoritative active errors live in `err`.
  std::vector<double> error;
  // Active-position order: position k < count holds original index
  // active[k] (ascending), its error, its I_up/I_low offsets and K_tt.
  std::vector<int32_t> active;
  std::vector<double> err;
  std::vector<double> up_off;   // 0 in I_up, -inf outside
  std::vector<double> low_off;  // 0 in I_low, +inf outside
  std::vector<double> diag;
  size_t count = 0;
  std::vector<int32_t> position;  // n; position of t, or kInactive
  // Row `compact_row` in position order, for the current active set: the
  // WSS2 scan leaves row i here for the refresh that follows.
  std::vector<float> row_compact;
  size_t compact_row = kNone;
  // The extremes of the current errors over the current active set:
  // each refresh returns the next ones, a shrink or unshrink voids them.
  simd::SmoExtremes extremes;
  bool extremes_valid = false;
  bool shrunk = false;               // count < n
  bool aggressive_unshrunk = false;  // one-time 10x-tolerance unshrink
  size_t shrink_events = 0;
  size_t unshrink_events = 0;
  double bias = 0.0;

  Solver(KernelRowSource& kernel_rows, const std::vector<int8_t>& labels,
         const SmoConfig& config)
      : rows(kernel_rows), y(labels), cfg(config), n(labels.size()),
        alpha(n, 0.0), error(n), active(n), err(n), up_off(n), low_off(n),
        diag(n), position(n), row_compact(n) {
    for (size_t i = 0; i < n; ++i) error[i] = -static_cast<double>(y[i]);
    ActivateAll();
  }

  bool InUp(size_t t) const {
    return (y[t] > 0 && alpha[t] < cfg.C) || (y[t] < 0 && alpha[t] > 0.0);
  }
  bool InLow(size_t t) const {
    return (y[t] > 0 && alpha[t] > 0.0) || (y[t] < 0 && alpha[t] < cfg.C);
  }

  /// Re-derives position k's set offsets from alpha.
  void SetMembership(size_t k) {
    const size_t t = static_cast<size_t>(active[k]);
    up_off[k] = InUp(t) ? 0.0 : -std::numeric_limits<double>::infinity();
    low_off[k] = InLow(t) ? 0.0 : std::numeric_limits<double>::infinity();
  }

  /// Makes every point active at position = original index, with its
  /// error taken from `error`.
  void ActivateAll() {
    const float* kdiag = rows.Diag();
    count = n;
    for (size_t t = 0; t < n; ++t) {
      active[t] = static_cast<int32_t>(t);
      position[t] = static_cast<int32_t>(t);
      err[t] = error[t];
      diag[t] = static_cast<double>(kdiag[t]);
      SetMembership(t);
    }
    extremes_valid = false;
    compact_row = kNone;
  }

  simd::SmoActiveView View() {
    return {err.data(),  up_off.data(), low_off.data(),
            diag.data(), active.data(), count};
  }

  size_t PositionOf(size_t t) const {
    assert(position[t] != kInactive);
    return static_cast<size_t>(position[t]);
  }

  /// Max up-score / min low-score over the active set (the violation
  /// m - M drives both the stopping rule and the shrink thresholds), at
  /// the positions in `extremes`: the last refresh's, else a fresh scan.
  /// False when either set is empty.
  bool ExtremeScores(double& up_best, double& low_best) {
    if (!extremes_valid) {
      extremes = simd::SmoScanScores(View());
      extremes_valid = true;
    }
    if (extremes.up == kNone || extremes.low == kNone) return false;
    up_best = -err[extremes.up];
    low_best = -err[extremes.low];
    return true;
  }

  /// Selects the working pair over the active set; returns false at the
  /// active-set optimum (caller decides whether that is global). With
  /// error_t = f(x_t) - y_t, the LIBSVM selection score -y_t grad_t
  /// equals -error_t up to a constant bias shift that cancels in every
  /// comparison.
  bool SelectPair(size_t& out_i, size_t& out_j) {
    double up_best = 0.0, low_best = 0.0;
    if (!ExtremeScores(up_best, low_best)) return false;
    if (up_best - low_best < cfg.tolerance) return false;
    // WSS2: fetch i's kernel row once and pick j by quadratic gain. The
    // scan copies the row into position order as it goes, so the
    // refresh reads it from there; UpdatePair still re-fetches the row,
    // which is a cache hit for any source that can hold a row.
    const size_t up_idx = static_cast<size_t>(active[extremes.up]);
    const size_t kj = simd::SmoSelectJ(
        View(), rows.Row(up_idx), static_cast<double>(rows.Diag()[up_idx]),
        up_best, row_compact.data());
    compact_row = up_idx;
    if (kj == kNone) {
      // No candidate violates STRICTLY (diff > 0). With tolerance > 0
      // the check above guarantees one, but a caller-supplied
      // tolerance <= 0 reaches here at an exact active-set optimum —
      // report optimality rather than indexing with the sentinel.
      return false;
    }
    out_i = up_idx;
    out_j = static_cast<size_t>(active[kj]);
    return true;
  }

  /// Analytic two-variable update (Platt). Returns false if no progress.
  bool UpdatePair(size_t i, size_t j) {
    if (i == j) return false;
    const size_t ki = PositionOf(i), kj = PositionOf(j);
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
    if (!PairStep(lo, hi, ai_old, aj_old, yi, yj, err[ki], err[kj], bias,
                  kii, kjj, kij, aj_new)) {
      return false;
    }

    // Committed: fetch both kernel rows for the error-cache refresh. Row
    // i is read in position order: the WSS2 scan already left it there
    // unless i came from the fallback scan, in which case it is copied
    // now — before row j is fetched, because a source that cannot hold
    // two rows at once (a 1-row cache) reuses its storage immediately.
    // Either way the refresh reads the same float values in the same
    // order for any row source and cache size.
    const float* gi = rows.Row(i);
    if (compact_row != i) {
      for (size_t k = 0; k < count; ++k) {
        row_compact[k] = gi[static_cast<size_t>(active[k])];
      }
      compact_row = i;
    }
    const float* gj = rows.Row(j);

    // Snapped before it is stored, so the bias branch and the error
    // refresh below see the value alpha[i] holds.
    const double ai_new =
        SnapToBoxBound(ai_old + yi * yj * (aj_old - aj_new), cfg.C);
    alpha[i] = ai_new;
    alpha[j] = aj_new;
    SetMembership(ki);
    SetMembership(kj);

    // Intercept update (standard SMO bookkeeping).
    const double b1 = bias - err[ki] - yi * (ai_new - ai_old) * kii -
                      yj * (aj_new - aj_old) * kij;
    const double b2 = bias - err[kj] - yi * (ai_new - ai_old) * kij -
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

    // Refresh the error cache over the active set and find the next
    // extremes in the same pass. Inactive errors go stale by design;
    // Unshrink reconstructs them from scratch before they are ever read
    // again.
    const simd::SmoRefresh refresh{row_compact.data(), gj,
                                   yi * (ai_new - ai_old),
                                   yj * (aj_new - aj_old), delta_b};
    extremes = simd::SmoRefreshScan(View(), refresh);
    extremes_valid = true;
    return true;
  }

  /// Reconstructs the full error cache and reactivates every point.
  /// Stale inactive errors are recomputed from scratch by
  /// ReconstructErrors, so the values (and everything downstream) are
  /// independent of the cache budget. Active errors keep their
  /// incrementally maintained values.
  void Unshrink() {
    if (!shrunk) return;
    rows.ClearActiveRestriction();
    for (size_t k = 0; k < count; ++k) {
      error[static_cast<size_t>(active[k])] = err[k];
    }
    std::vector<int32_t> inactive;
    for (size_t t = 0; t < n; ++t) {
      if (position[t] == kInactive) inactive.push_back(static_cast<int32_t>(t));
    }
    std::vector<double> inactive_err(inactive.size());
    ReconstructErrors(rows, y, alpha, bias, inactive.data(), inactive.size(),
                      inactive_err.data());
    for (size_t k = 0; k < inactive.size(); ++k) {
      error[static_cast<size_t>(inactive[k])] = inactive_err[k];
    }
    ActivateAll();
    shrunk = false;
    ++unshrink_events;
  }

  /// Periodic shrink pass (LIBSVM do_shrinking): once the active
  /// violation falls within 10x tolerance, reconstruct and unshrink
  /// aggressively (one time), then deactivate bound-pinned points whose
  /// score can no longer enter the working set — an I_up-only point
  /// with score below the min low-score, or an I_low-only point with
  /// score above the max up-score. The kept positions compact stably.
  void DoShrink() {
    double up_best = 0.0, low_best = 0.0;
    if (!ExtremeScores(up_best, low_best)) return;  // SelectPair handles it
    if (!aggressive_unshrunk && up_best - low_best <= cfg.tolerance * 10) {
      aggressive_unshrunk = true;
      Unshrink();
      if (!ExtremeScores(up_best, low_best)) return;
    }
    size_t kept = 0;
    for (size_t k = 0; k < count; ++k) {
      const size_t t = static_cast<size_t>(active[k]);
      const bool up = InUp(t), low = InLow(t);
      const double score = -err[k];
      bool drop = false;
      if (up && !low) {
        drop = score < low_best;
      } else if (low && !up) {
        drop = score > up_best;
      }
      if (drop) {
        position[t] = kInactive;
        continue;
      }
      active[kept] = active[k];
      err[kept] = err[k];
      up_off[kept] = up_off[k];
      low_off[kept] = low_off[k];
      diag[kept] = diag[k];
      position[t] = static_cast<int32_t>(kept);
      ++kept;
    }
    if (kept < count) {
      count = kept;
      shrunk = true;
      ++shrink_events;
      extremes_valid = false;
      compact_row = kNone;
      rows.RestrictActive(active.data(), count);
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
    const int8_t* ys = y.data();
    const double* as = alpha.data();
    const double* es = err.data();
    const double* ds = diag.data();
    const int32_t* act = active.data();
    const size_t size = count;
    const double C = cfg.C, b = bias;
    const size_t kp = PositionOf(p);
    const double yp = ys[p], ap = as[p], ep = es[kp], kpp = ds[kp];
    for (size_t k = 0; k < size; ++k) {
      const size_t t = static_cast<size_t>(act[k]);
      if (t == i || t == j) continue;
      const double yt = ys[t], at = as[t];
      double lo, hi, aj_new;
      if (kPinnedFirst) {
        if (!PairBox(yp, yt, ap, at, C, lo, hi)) continue;
        const double kpt = row_p != nullptr ? row_p[t] : rows.At(p, t);
        if (PairStep(lo, hi, ap, at, yp, yt, ep, es[k], b, kpp, ds[k], kpt,
                     aj_new)) {
          return t;
        }
      } else {
        if (!PairBox(yt, yp, at, ap, C, lo, hi)) continue;
        const double ktp = row_p != nullptr ? row_p[t] : rows.At(t, p);
        if (PairStep(lo, hi, at, ap, yt, yp, es[k], ep, b, ds[k], kpp, ktp,
                     aj_new)) {
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
  counters::Add(Counter::kSmoFits, 1);
  counters::Add(Counter::kSmoIterations, it);
  counters::Add(Counter::kSmoShrinks, solver.shrink_events);
  counters::Add(Counter::kSmoUnshrinks, solver.unshrink_events);
  if (!sol.converged) counters::Add(Counter::kSmoUnconverged, 1);
  return sol;
}

}  // namespace ml
}  // namespace hamlet
