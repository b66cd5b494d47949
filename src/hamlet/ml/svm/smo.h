// Sequential Minimal Optimization solver for the C-SVC dual.
//
// Solves   min_a  1/2 sum_ij a_i a_j y_i y_j K_ij - sum_i a_i
//          s.t.   0 <= a_i <= C,  sum_i a_i y_i = 0
// using Platt-style pairwise updates with an error cache maintained over
// an active set. Working-set selection is LIBSVM-style second-order
// (WSS2): i maximises the gradient violation over I_up, j maximises the
// quadratic gain (G_i - G_j)^2 / max(eta, tau) over the violating I_low
// candidates, using the cached kernel diagonal plus the single kernel
// row for i. Shrinking periodically deactivates bound-pinned points
// whose gradients cannot re-enter the working set; before convergence
// is declared the solver reconstructs the full gradient and unshrinks,
// so the returned solution is tolerance-exact on the full problem.
// Each pair update snaps the alpha it derives from the equality
// constraint onto a bound it lands within rounding of (SnapToBoxBound).
// A selected pair that still cannot move goes through a fallback scan
// for another partner; a solve that runs out of max_iterations returns
// converged == false and is counted in Counter::kSmoUnconverged.
//
// Active-order layout. The solver keeps the per-point state its loop
// reads — the error cache, I_up/I_low membership and the kernel
// diagonal — in active-position order (simd::SmoActiveView): position k
// holds the k-th smallest active original index, plus a map from
// original index to position. Every O(active) pass is then a unit-stride
// loop; only kernel-row reads go through the active index list. A shrink
// compacts the arrays stably and an unshrink scatters them back, so a
// lower position is always a lower original index and every
// first-maximum tie-break still resolves to the lowest original index.
// Membership is an additive offset on the score (0 for a member, -inf /
// +inf outside I_up / I_low), so the scans need no per-point branches.
//
// One pass per pair update. Each iteration makes two O(active) passes,
// both in simd/ (scalar and AVX2 versions, the backend picked from the
// CPU): the WSS2 j-scan, which also copies row i into position order,
// and the error refresh, which returns the next iteration's (up, low)
// extremes in the same pass. A fresh score scan runs only after a
// shrink or unshrink changes the active set.
//
// Division-free WSS2. The j-scan starts from -inf and skips a candidate
// without dividing when d^2 <= fl(fl(best * eta) * (1 - 2^-50)), which
// is exact while best * eta is a normal number: two roundings cannot
// lift the bound to best * eta, so no skipped candidate could have
// beaten best (simd/smo_scan.cc has the proof). Other candidates take
// the exact division; until a positive gain is taken none is skipped,
// so a zero-gain pick and the no-violator sentinel keep their meaning.
//
// Kernel rows are supplied by a KernelRowSource (in production the lazy
// LRU KernelCache, see kernel_cache.h). Row i is copied into position
// order by the j-scan, before row j is fetched, and the refresh reads
// that copy, so a row pointer never has to survive a second fetch. The
// arithmetic consumes identical float values in identical order, with
// no fused multiply-add, so the solution is bit-identical for any row
// source, any cache size and either SIMD backend.

#ifndef HAMLET_ML_SVM_SMO_H_
#define HAMLET_ML_SVM_SMO_H_

#include <cstdint>
#include <vector>

#include "hamlet/common/status.h"

namespace hamlet {
namespace ml {

/// Solver parameters.
struct SmoConfig {
  double C = 1.0;
  double tolerance = 1e-3;      ///< KKT violation tolerance
  size_t max_iterations = 20000;  ///< pairwise-update budget
  /// Kernel-row cache budget in bytes for callers that build a
  /// KernelCache (KernelSvm::Fit). 0 = resolve via HAMLET_SMO_CACHE_MB /
  /// the 64 MiB default (KernelCacheBytesFromEnv). The solver itself is
  /// agnostic: it uses whatever KernelRowSource it is handed.
  size_t cache_bytes = 0;
};

/// Solver output: dual coefficients and intercept.
///
/// Field contract: every OK return from SolveSmo sets every field
/// deterministically — including the degenerate single-class early
/// return (zero alpha, bias at the majority label, iterations = 0,
/// converged = true, num_support_vectors = 0).
struct SmoSolution {
  std::vector<double> alpha;
  double bias = 0.0;
  size_t iterations = 0;
  bool converged = false;
  size_t num_support_vectors = 0;
};

/// The registry's five SMO entries (common/counters.h defines each),
/// which SolveSmo adds to when a solve that entered the pairwise loop
/// ends.
struct SmoTotals {
  uint64_t fits = 0;
  uint64_t iterations = 0;
  uint64_t shrink_events = 0;
  uint64_t unshrink_events = 0;
  uint64_t unconverged = 0;
};

/// The SMO totals accumulated so far (all solves in this process).
SmoTotals GlobalSmoTotals();

/// Supplier of kernel matrix rows to the solver. Row(i) returns n floats
/// K(x_i, x_t); the pointer is only guaranteed valid until the next
/// Row() call (a bounded cache may evict the backing storage).
class KernelRowSource {
 public:
  virtual ~KernelRowSource() = default;
  virtual const float* Row(size_t i) = 0;
  /// Single entry K(x_i, x_j), bit-identical to Row(i)[j], without
  /// fetching (or evicting) whole rows and without touching the
  /// hit/miss counters. The solver probes kii/kjj/kij through this
  /// before committing to the two full-row fetches an update needs, so
  /// no-progress probes (box-clipped pairs, and stuck-pair fallback
  /// probes whose pinned row is not resident) stay O(d) instead of
  /// recomputing rows under a tight cache.
  /// While an active restriction is installed, both i and j must be
  /// restricted indices.
  virtual float At(size_t i, size_t j) const = 0;
  /// Row i if it is resident and valid, else nullptr — without computing,
  /// evicting or reordering anything and without touching the hit/miss
  /// counters. A non-null row holds the same values Row(i) would return
  /// (under an active restriction, at the restricted entries only) and
  /// stays valid until the next Row() call. The stuck-pair fallback scan
  /// reads its pinned end's kernel entries through this, falling back to
  /// At() when it returns nullptr. Default: never resident.
  virtual const float* PeekRow(size_t i) const {
    (void)i;
    return nullptr;
  }
  /// The n diagonal entries K(x_t, x_t), bit-identical to Row(t)[t].
  /// Stable for the lifetime of the source; WSS2 reads eta candidates
  /// from here without fetching rows.
  virtual const float* Diag() const = 0;
  /// Problem size n (rows are n floats).
  virtual size_t size() const = 0;
  /// Narrows subsequent Row() computations to the given ascending
  /// original indices (the solver's shrunk active set). Implementations
  /// may leave non-restricted entries of returned rows unspecified, so
  /// callers must only read restricted entries while a restriction is
  /// installed. Successive calls must pass subsets of the previous
  /// restriction (the active set only shrinks between
  /// ClearActiveRestriction calls). Default: ignored — a source that
  /// always serves full rows is trivially correct.
  virtual void RestrictActive(const int32_t* indices, size_t count) {
    (void)indices;
    (void)count;
  }
  /// Lifts the restriction: subsequent Row() calls serve fully valid
  /// rows again (gradient reconstruction needs the dead columns).
  virtual void ClearActiveRestriction() {}
};

/// Platt's endpoint-objective rule for a degenerate-curvature pair
/// (eta = kii + kjj - 2*kij <= 0): evaluates the pair-restricted dual
/// objective at both clipped box ends and returns the aj value of the
/// lower one — lo, hi, or aj_old when the two ends tie (no progress).
/// The gradient-sign heuristic this replaces can pick the worse end when
/// eta < 0 (near-duplicate rows under float rounding): the local descent
/// direction of a concave parabola need not point at the lower endpoint.
/// Exposed for direct unit testing.
double DegenerateEndpointAj(double lo, double hi, double ai_old,
                            double aj_old, double yi, double yj,
                            double error_i, double error_j, double bias,
                            double kii, double kjj, double kij);

/// Returns exactly 0 or C when `a` lies within 1e-12*C of that bound
/// (the solver's rounding scale, shared with the pair step's
/// no-progress threshold and WSS2's tau), else `a` unchanged. A pair
/// update derives alpha_i = ai_old + yi*yj*(aj_old - aj_new) by
/// cancellation, which can stop a rounding error inside the box; left
/// there, WSS2 keeps selecting a pair that can never move. Exposed for
/// direct unit testing.
double SnapToBoxBound(double a, double C);

/// The gradient reconstruction of an unshrink (LIBSVM's; Chang & Lin,
/// ACM TIST 2011), on the error cache: for the `count` ascending original
/// indices t in `indices`,
///   errors[k] = bias - y_t + sum_s (alpha_s * y_s) * K(x_s, x_t),
/// accumulated from bias - y_t over the s with alpha_s != 0 in ascending
/// order, each such row fetched once through rows.Row(s) in that order.
/// The solver calls it for the points that were inactive, whose cached
/// errors went stale while they were shrunk; the row source must serve
/// full rows (no active restriction). Exposed for direct unit testing.
void ReconstructErrors(KernelRowSource& rows, const std::vector<int8_t>& y,
                       const std::vector<double>& alpha, double bias,
                       const int32_t* indices, size_t count, double* errors);

/// Runs SMO against `rows` (n x n kernel values served row by row);
/// `y` holds labels in {-1, +1} and y.size() must equal rows.size().
Result<SmoSolution> SolveSmo(KernelRowSource& rows,
                             const std::vector<int8_t>& y,
                             const SmoConfig& config);

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_SVM_SMO_H_
