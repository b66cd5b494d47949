// The SMO solver's per-iteration scans (the contracts are in simd.h):
// a portable scalar version of each, and an AVX2 version that runs four
// positions per step. The scalar scans are the reference: they walk
// positions in ascending order with strict comparisons, so the first
// extreme wins. The AVX2 j-scan keeps each lane's first extreme and
// merges the lanes by value and, among equal values, by lowest
// position. The AVX2 score scans keep only lane extremes and find the
// position afterwards, by rescanning the one 32-position block that
// first attains the extreme (the argument is at ScanAvx2). Tail positions
// continue each scan one at a time. Every version returns the scalar
// answer for every input, NaN included (a NaN never compares better),
// and none uses a fused multiply-add, so all write the same error bits.
//
// Isolated in its own translation unit so the AVX2 functions can carry
// __attribute__((target(...))) while the rest of the library compiles
// for the baseline ISA; simd.cc routes here after the CPU check.

#include <algorithm>
#include <cmath>
#include <limits>

#include "hamlet/simd/simd.h"
#include "hamlet/simd/simd_native.h"

#ifdef HAMLET_X86_NATIVE
#include <immintrin.h>
#endif

namespace hamlet {
namespace simd {
namespace detail {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// WSS2's curvature floor (LIBSVM's tau).
constexpr double kTau = 1e-12;

// The WSS2 prefilter. The scan starts from best = -inf and takes the
// first candidate with d > 0 and the greatest gain d^2 / eta. Let best > 0
// be the running best gain, eta > 0 a candidate's clamped curvature and d2 = fl(d * d). The scan takes the
// candidate iff fl(d2 / eta) > best. Rounding is monotone and best is a
// double, so fl(d2 / eta) > best implies d2 / eta > best exactly, i.e.
// d2 > best * eta. Let p = fl(best * eta) and
// bound = fl(p * (1 - 2^-50)). While p is finite and at least
// 2 * DBL_MIN, the exact best * eta and p * (1 - 2^-50) are both normal,
// so each product rounds with relative error at most u = 2^-53 and
//   bound <= best * eta * (1 + u)^2 * (1 - 2^-50) < best * eta,
// since (1 + u)^2 (1 - 2^-50) = 1 - 2^-50 + 2^-52 + 2^-106 - ... < 1.
// So a candidate the scan would take has d2 > bound, and one with
// d2 <= bound can be skipped without dividing. When p is outside that
// range (best still -inf or 0, underflow, overflow, NaN) the candidate
// takes the exact division, so until a positive gain is taken every
// candidate is compared as in a plain divide-everywhere scan.
constexpr double kPrefilterSlack = 1.0 - 0x1p-50;
constexpr double kPrefilterMin = 2.0 * std::numeric_limits<double>::min();
constexpr double kPrefilterMax = std::numeric_limits<double>::max();

/// True when the prefilter proves fl(d2 / eta) <= best, with
/// p = best * eta (see above).
inline bool PrefilterSkips(double d2, double p) {
  return p >= kPrefilterMin && p <= kPrefilterMax &&
         d2 <= p * kPrefilterSlack;
}

/// WSS2's clamped curvature kii + K_kk - 2 K_ik. A NaN stays NaN (its
/// gain then never compares better).
inline double Wss2Eta(double kii, double diag, float k_ik) {
  double eta = kii + diag - 2.0 * static_cast<double>(k_ik);
  if (eta < kTau) eta = kTau;
  return eta;
}

/// The violation of position k against up_best: positive only for a
/// violating I_low member (low_off is +inf outside I_low).
inline double Wss2Diff(const SmoActiveView& v, double up_best, size_t k) {
  return (up_best + v.err[k]) - v.low_off[k];
}

/// One scan step at position k: refreshes err[k] when kRefresh, then
/// offers the masked scores to the running extremes.
template <bool kRefresh>
inline void ScanStep(const SmoActiveView& v, const SmoRefresh* r, size_t k,
                     double& up_best, size_t& up, double& low_best,
                     size_t& low) {
  double e = v.err[k];
  if (kRefresh) {
    const double gi = static_cast<double>(r->gi[k]);
    const double gj = static_cast<double>(r->gj[v.active[k]]);
    e = e + ((r->di * gi + r->dj * gj) + r->db);
    v.err[k] = e;
  }
  const double score = -e;
  const double up_score = score + v.up_off[k];
  const double low_score = score + v.low_off[k];
  if (up_score > up_best) {
    up_best = up_score;
    up = k;
  }
  if (low_score < low_best) {
    low_best = low_score;
    low = k;
  }
}

/// The scalar scan from position `begin` on, continuing the given
/// running extremes.
template <bool kRefresh>
SmoExtremes ScanFrom(const SmoActiveView& v, const SmoRefresh* r,
                     size_t begin, double up_best, size_t up,
                     double low_best, size_t low) {
  for (size_t k = begin; k < v.count; ++k) {
    ScanStep<kRefresh>(v, r, k, up_best, up, low_best, low);
  }
  return {up, low};
}

/// One WSS2 step at position k against the running best: copies K_ik
/// out and takes k when its gain beats best, dividing only when the
/// prefilter cannot rule k out.
inline void SelectJStep(const SmoActiveView& v, const float* row_i,
                        double kii, double up_best, float* row_i_out,
                        size_t k, double& best, size_t& best_k) {
  const float k_ik = row_i[v.active[k]];
  row_i_out[k] = k_ik;
  const double diff = Wss2Diff(v, up_best, k);
  if (!(diff > 0.0)) return;
  const double eta = Wss2Eta(kii, v.diag[k], k_ik);
  const double d2 = diff * diff;
  if (PrefilterSkips(d2, best * eta)) return;
  const double gain = d2 / eta;
  if (gain > best) {
    best = gain;
    best_k = k;
  }
}

}  // namespace

SmoExtremes SmoScanScalar(const SmoActiveView& view,
                          const SmoRefresh* refresh) {
  if (refresh != nullptr) {
    return ScanFrom<true>(view, refresh, 0, -kInf, kNoPosition, kInf,
                          kNoPosition);
  }
  return ScanFrom<false>(view, nullptr, 0, -kInf, kNoPosition, kInf,
                         kNoPosition);
}

size_t SmoSelectJScalar(const SmoActiveView& view, const float* row_i,
                        double kii, double up_best, float* row_i_out) {
  double best = -kInf;
  size_t best_k = kNoPosition;
  for (size_t k = 0; k < view.count; ++k) {
    SelectJStep(view, row_i, kii, up_best, row_i_out, k, best, best_k);
  }
  return best_k;
}

#ifdef HAMLET_X86_NATIVE

namespace {

constexpr size_t kLanes = 4;

/// Positions per block of the score scans' deferred argmax.
constexpr size_t kScanBlock = 32;

/// Folds per-lane (value, position) pairs into (best, best_k): the
/// greater value, and the lower position among equal values. Lanes that
/// never took a value hold position -1.
inline void MergeLanes(const double* value, const double* position,
                       double& best, size_t& best_k) {
  for (size_t l = 0; l < kLanes; ++l) {
    if (position[l] < 0.0) continue;
    const size_t k = static_cast<size_t>(position[l]);
    if (value[l] > best || (value[l] == best && k < best_k)) {
      best = value[l];
      best_k = k;
    }
  }
}

/// Lane-wise mask ? a : b for an all-ones / all-zeros `mask`. Spelled
/// with bitwise ops: GCC rewrites _mm256_blendv_pd on a compare result
/// into an extra sign test, which lands on the scans' loop-carried chain.
__attribute__((target("avx2"))) inline __m256d Select(__m256d mask,
                                                      __m256d a, __m256d b) {
  return _mm256_or_pd(_mm256_and_pd(mask, a), _mm256_andnot_pd(mask, b));
}

/// Four K(x, x_t) entries gathered through the active list. Scalar
/// loads: a vgatherdps measured slower than four loads on Sapphire
/// Rapids.
__attribute__((target("avx2"))) inline __m128 GatherRow(
    const float* row, const int32_t* active) {
  return _mm_setr_ps(row[active[0]], row[active[1]], row[active[2]],
                     row[active[3]]);
}

/// The greatest (kMax) or least of four lanes, none of them NaN.
template <bool kMax>
__attribute__((target("avx2"))) inline double ReduceLanes(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = kMax ? _mm_max_pd(lo, hi) : _mm_min_pd(lo, hi);
  const __m128d other = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(kMax ? _mm_max_sd(pair, other)
                            : _mm_min_sd(pair, other));
}

/// The first position in [begin, end) whose masked up (kUp) or low score
/// equals `best`, computed from the (refreshed) errors exactly as the
/// scan step computes it.
template <bool kUp>
inline size_t FirstPositionOf(const SmoActiveView& v, size_t begin,
                              size_t end, double best) {
  const double* off = kUp ? v.up_off : v.low_off;
  for (size_t k = begin; k < end; ++k) {
    if (-v.err[k] + off[k] == best) return k;
  }
  return kNoPosition;  // unreachable: the block attains `best`
}

// The deferred argmax. Each vector step keeps only the lane max of the
// up scores and the lane min of the low scores; max_pd(a, b) is
// a > b ? a : b, so a NaN score is never taken, as in the scalar scan.
// Each block of kScanBlock positions reduces its lanes to one extreme,
// and the running extreme moves to a block only when the block's is
// strictly better, so it stays at the first block that holds a score
// equal (==, so -0 and +0 alike) to the final extreme. Every earlier
// block's extreme is strictly worse, so the first position in that
// block whose score equals the extreme is the first such position
// overall: the position the scalar strict first-wins scan returns. A
// rescan of that one block finds it.
template <bool kRefresh>
__attribute__((target("avx2"))) SmoExtremes ScanAvx2(
    const SmoActiveView& v, const SmoRefresh* r) {
  // Locals, so the err stores cannot force reloads of the view's fields.
  double* const err = v.err;
  const double* const up_off = v.up_off;
  const double* const low_off = v.low_off;
  const int32_t* const active = v.active;
  const size_t vector_end = v.count - v.count % kLanes;
  const float* const gi_row = kRefresh ? r->gi : nullptr;
  const float* const gj_row = kRefresh ? r->gj : nullptr;
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d di = _mm256_setzero_pd(), dj = di, db = di;
  if (kRefresh) {
    di = _mm256_set1_pd(r->di);
    dj = _mm256_set1_pd(r->dj);
    db = _mm256_set1_pd(r->db);
  }
  double up_best = -kInf, low_best = kInf;
  size_t up_block = kNoPosition, low_block = kNoPosition;
  for (size_t block = 0; block < vector_end; block += kScanBlock) {
    const size_t block_end = std::min(block + kScanBlock, vector_end);
    __m256d up_value = _mm256_set1_pd(-kInf);
    __m256d low_value = _mm256_set1_pd(kInf);
    for (size_t k = block; k < block_end; k += kLanes) {
      __m256d e = _mm256_loadu_pd(err + k);
      if (kRefresh) {
        const __m256d gi = _mm256_cvtps_pd(_mm_loadu_ps(gi_row + k));
        const __m256d gj = _mm256_cvtps_pd(GatherRow(gj_row, active + k));
        e = _mm256_add_pd(
            e, _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(di, gi),
                                           _mm256_mul_pd(dj, gj)),
                             db));
        _mm256_storeu_pd(err + k, e);
      }
      const __m256d score = _mm256_xor_pd(e, sign);
      up_value = _mm256_max_pd(
          _mm256_add_pd(score, _mm256_loadu_pd(up_off + k)), up_value);
      low_value = _mm256_min_pd(
          _mm256_add_pd(score, _mm256_loadu_pd(low_off + k)), low_value);
    }
    const double block_up = ReduceLanes<true>(up_value);
    const double block_low = ReduceLanes<false>(low_value);
    if (block_up > up_best) {
      up_best = block_up;
      up_block = block;
    }
    if (block_low < low_best) {
      low_best = block_low;
      low_block = block;
    }
  }
  // The rescans and the tail below are baseline SSE code, which GCC may
  // reach by a plain jump without clearing the upper YMM halves; left
  // dirty, they slow every later SSE instruction on this thread.
  _mm256_zeroupper();
  size_t up = kNoPosition, low = kNoPosition;
  if (up_block != kNoPosition) {
    up = FirstPositionOf<true>(
        v, up_block, std::min(up_block + kScanBlock, vector_end), up_best);
  }
  if (low_block != kNoPosition) {
    low = FirstPositionOf<false>(
        v, low_block, std::min(low_block + kScanBlock, vector_end), low_best);
  }
  return ScanFrom<kRefresh>(v, r, vector_end, up_best, up, low_best, low);
}

}  // namespace

__attribute__((target("avx2"))) SmoExtremes SmoScanAvx2(
    const SmoActiveView& view, const SmoRefresh* refresh) {
  return refresh != nullptr ? ScanAvx2<true>(view, refresh)
                            : ScanAvx2<false>(view, nullptr);
}

__attribute__((target("avx2"))) size_t SmoSelectJAvx2(
    const SmoActiveView& view, const float* row_i, double kii,
    double up_best, float* row_i_out) {
  const __m256d up_v = _mm256_set1_pd(up_best);
  const __m256d kii_v = _mm256_set1_pd(kii);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d tau = _mm256_set1_pd(kTau);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d slack = _mm256_set1_pd(kPrefilterSlack);
  const __m256d p_min = _mm256_set1_pd(kPrefilterMin);
  const __m256d p_max = _mm256_set1_pd(kPrefilterMax);
  const __m256d step = _mm256_set1_pd(static_cast<double>(kLanes));
  // Locals, so the row_i_out stores cannot force reloads of the view.
  const double* const err = view.err;
  const double* const low_off = view.low_off;
  const double* const diag = view.diag;
  const int32_t* const active = view.active;
  const size_t count = view.count;
  __m256d best = _mm256_set1_pd(-kInf);
  __m256d best_pos = _mm256_set1_pd(-1.0);
  __m256d pos = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
  size_t k = 0;
  for (; k + kLanes <= count; k += kLanes, pos = _mm256_add_pd(pos, step)) {
    const __m128 k_ik = GatherRow(row_i, active + k);
    _mm_storeu_ps(row_i_out + k, k_ik);
    const __m256d diff =
        _mm256_sub_pd(_mm256_add_pd(up_v, _mm256_loadu_pd(err + k)),
                      _mm256_loadu_pd(low_off + k));
    // max(tau, eta) is tau only when tau > eta, so a NaN eta stays NaN,
    // as in Wss2Eta.
    const __m256d eta = _mm256_max_pd(
        tau, _mm256_sub_pd(_mm256_add_pd(kii_v, _mm256_loadu_pd(diag + k)),
                           _mm256_mul_pd(two, _mm256_cvtps_pd(k_ik))));
    const __m256d d2 = _mm256_mul_pd(diff, diff);
    const __m256d p = _mm256_mul_pd(best, eta);
    const __m256d skip = _mm256_and_pd(
        _mm256_and_pd(_mm256_cmp_pd(p, p_min, _CMP_GE_OQ),
                      _mm256_cmp_pd(p, p_max, _CMP_LE_OQ)),
        _mm256_cmp_pd(d2, _mm256_mul_pd(p, slack), _CMP_LE_OQ));
    const __m256d live =
        _mm256_andnot_pd(skip, _mm256_cmp_pd(diff, zero, _CMP_GT_OQ));
    if (_mm256_movemask_pd(live) == 0) continue;
    const __m256d gain = _mm256_div_pd(d2, eta);
    const __m256d better =
        _mm256_and_pd(live, _mm256_cmp_pd(gain, best, _CMP_GT_OQ));
    best = Select(better, gain, best);
    best_pos = Select(better, pos, best_pos);
  }
  alignas(32) double value[kLanes], position[kLanes];
  _mm256_store_pd(value, best);
  _mm256_store_pd(position, best_pos);
  _mm256_zeroupper();  // as in ScanAvx2: the tail is baseline SSE code
  double best_gain = -kInf;
  size_t best_k = kNoPosition;
  MergeLanes(value, position, best_gain, best_k);
  for (; k < count; ++k) {
    SelectJStep(view, row_i, kii, up_best, row_i_out, k, best_gain, best_k);
  }
  return best_k;
}

#endif  // HAMLET_X86_NATIVE

}  // namespace detail
}  // namespace simd
}  // namespace hamlet
