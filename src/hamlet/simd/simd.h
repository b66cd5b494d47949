// Packed-code layout and the match-counting hot loops.
//
// Every inner loop the paper's experiments live in — 1-NN Hamming
// distance, the linear/overlap SVM kernels, NB counting, tree split
// scans — is a scan over uint32_t categorical codes. Packing the codes
// into fixed-width bit fields (see PackedLayout) turns match counting
// into XOR + carry-trick + popcount over uint64_t words: 16-64 codes per
// cache line instead of one per 4 bytes.
//
// There is one match-counting routine, PackedMatchCounts: one query
// against a slab or an index list of rows. 1-NN scans its training rows
// through it in fixed blocks, the kernel cache computes rows (and single
// pairs) with it, and SVM scoring counts each query against the support
// vectors with it. It is integer-exact: every count equals the
// field-by-field definition, so every downstream float computation
// consumes identical integers on any host. Only the popcount is picked,
// from the CPU alone (never from a setting):
//
//   native  hardware popcount (x86-64 POPCNT; on aarch64 the compiler
//           lowers the builtin to NEON cnt).
//   swar    bit-twiddling popcount on hosts without one.
//
// The parity suite (tests/packed_parity_test.cc) checks both routines
// directly against a field-by-field oracle.
//
// The word-level helpers here are layout math on raw pointers only; the
// owning container is data/packed_code_matrix.h.
//
// The SMO solver's three per-iteration scans live here too (see
// SmoActiveView below): the score scan, the fused error refresh + score
// scan, and the WSS2 j-scan. Each has a portable scalar version and an
// AVX2 version; the AVX2 one runs where the CPU has it, picked from the
// CPU alone like the popcount. Both return the same positions and write
// the same error bits for every input, so SMO is bit-identical across
// backends (tests/smo_kernel_parity_test.cc).
//
// The MLP's fit and forward kernels (MlpKernels below) are here for the
// same reason: written once over the vector width, built for two-double
// baseline vectors (SSE2 on x86-64, NEON on aarch64) and for four-double
// AVX2 vectors, and picked from the CPU alone. Lanes hold independent
// elements and nothing is fused, so both builds write the same bits
// (tests/mlp_kernel_parity_test.cc).

#ifndef HAMLET_PACKED_SIMD_H_
#define HAMLET_PACKED_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hamlet {
namespace simd {

/// The popcount the match-counting path runs on this host.
enum class Backend {
  kSwar,
  kNative,
};

/// "swar" or "native" (bench reports and fingerprints).
const char* BackendName(Backend backend);

/// kNative when this host has a hardware popcount (POPCNT on x86-64,
/// always on aarch64), else kSwar. Reports the CPU; changes nothing.
Backend ActiveBackend();

/// Bit-field layout shared by every packed row that must be comparable.
///
/// Each code occupies a field of `field_bits` = (bits needed for the
/// largest code) + 1 bits; the extra top bit is a guard that is always
/// stored as 0. For x = a XOR b, adding (2^(field_bits-1) - 1) to every
/// field (`add_mask`) carries into the guard bit exactly when the field
/// is non-zero, and the carry cannot escape the field — so
/// popcount((x + add_mask) & guard_mask) is the mismatch count of one
/// word. Unused tail fields of the last word are zero in every row and
/// contribute no mismatches.
struct PackedLayout {
  size_t num_features = 0;
  uint32_t field_bits = 2;      ///< value bits + 1 guard bit
  size_t fields_per_word = 32;  ///< 64 / field_bits
  size_t words_per_row = 0;     ///< ceil(num_features / fields_per_word)
  uint64_t guard_mask = 0;      ///< guard bit of every field in a word
  uint64_t add_mask = 0;        ///< (2^(field_bits-1) - 1) in every field

  /// Layout wide enough for `d` features whose codes come from the given
  /// per-feature domain sizes (codes are < domain). The layout depends
  /// only on the largest domain, so matrices with equal domains share it.
  static PackedLayout ForDomains(const uint32_t* domains, size_t d);

  /// Layout wide enough for codes up to and including `max_code`.
  static PackedLayout ForMaxCode(uint32_t max_code, size_t d);

  /// Packs one row of num_features codes into out[0 .. words_per_row).
  /// Every code must fit the layout (checked via assert).
  void PackRow(const uint32_t* codes, uint64_t* out) const;

  /// Unpacks feature j from a packed row (tests and debug checks).
  uint32_t UnpackCode(const uint64_t* row, size_t j) const;
};

/// The one packed comparison: counts[k] is the number of features on
/// which `query` and row k match (num_features minus the mismatches),
/// for k in [0, n). Row k is rows + r * words_per_row, where
/// r = indices[k] when `indices` is given (an ascending list of row
/// numbers) and r = k when it is null (a contiguous slab). Overwrites
/// counts[0 .. n). The popcount is picked once per call, not per row, so
/// a kernel row, a block of 1-NN training rows or an SVM score pays one
/// dispatch; rows of one and two words take straight-line loops with the
/// query in registers. A single pair is a call with n = 1.
void PackedMatchCounts(const PackedLayout& layout, const uint64_t* query,
                       const uint64_t* rows, const int32_t* indices,
                       size_t n, uint32_t* counts);

/// NB fit counting: for every (row i, feature j) increments
/// counts[offsets[j] + codes[i*d + j] * 2 + labels[i]]. `offsets` has
/// d + 1 entries (prefix sums of 2 * domain_size); `counts` has
/// offsets[d] entries. Rows are spread over four interleaved accumulator
/// lanes; lane sums are integers, so the counts equal those of a plain
/// row-order loop.
void CountCodeLabelPairs(const uint32_t* codes, const uint8_t* labels,
                         size_t n, size_t d, const size_t* offsets,
                         uint32_t* counts);

/// Tree split scan: per-code stats of `feature` over the node's rows
/// (row_ids[0..n)). Increments count[c] / pos_count[c] and appends each
/// code to `touched` the first time it is seen (count[c] == 0 before the
/// increment), exactly like a plain per-row loop. The row loads are
/// unrolled four at a time but the updates apply in row order, so
/// `touched` order and all counts are identical to that loop.
void SplitStatsScan(const uint32_t* codes, size_t num_features,
                    const uint8_t* labels, const uint32_t* row_ids, size_t n,
                    size_t feature, uint32_t* count, uint32_t* pos_count,
                    std::vector<uint32_t>& touched);

/// "No position": the scans' result when no active position qualifies.
inline constexpr size_t kNoPosition = static_cast<size_t>(-1);

/// The SMO solver's per-point state in active-position order: position k
/// holds original index active[k], with active ascending, so a lower
/// position is a lower original index and "first position" tie-breaks
/// are lowest-original-index tie-breaks. Set membership is stored as an
/// additive offset on the selection score -err[k]: up_off[k] is 0 in
/// I_up and -inf outside, low_off[k] is 0 in I_low and +inf outside, so
/// a non-member's masked score can never win a max (up) or min (low)
/// scan. Positions [0, count) are read.
struct SmoActiveView {
  double* err = nullptr;            ///< error cache f(x) - y
  const double* up_off = nullptr;   ///< 0 in I_up, -inf outside
  const double* low_off = nullptr;  ///< 0 in I_low, +inf outside
  const double* diag = nullptr;     ///< K(x, x)
  const int32_t* active = nullptr;  ///< original index at each position
  size_t count = 0;
};

/// The positions of the working-set extremes: `up` is the first position
/// maximising -err[k] + up_off[k], `low` the first minimising
/// -err[k] + low_off[k] (kNoPosition when no score beats the infinite
/// start, e.g. no member). A caller wanting the winner's score reads
/// -err[up] itself: a masked score adds 0.0, which turns -0 into +0.
struct SmoExtremes {
  size_t up = kNoPosition;
  size_t low = kNoPosition;
};

/// The error-cache refresh of one SMO pair update: at every position,
///   err[k] = err[k] + ((di * gi[k] + dj * gj[active[k]]) + db)
/// in exactly that association, with no fused multiply-add. `gi` is row
/// i in position order (compact); `gj` is row j by original index.
struct SmoRefresh {
  const float* gi = nullptr;
  const float* gj = nullptr;
  double di = 0.0;
  double dj = 0.0;
  double db = 0.0;
};

/// Scans the view for the working-set extremes without changing it.
SmoExtremes SmoScanScores(const SmoActiveView& view);

/// Applies `refresh` to view.err and scans the refreshed errors for the
/// extremes in the same pass.
SmoExtremes SmoRefreshScan(const SmoActiveView& view,
                           const SmoRefresh& refresh);

/// The WSS2 j-step (LIBSVM's second-order selection; Fan, Chen & Lin,
/// JMLR 2005): the first position maximising the quadratic gain
///   d^2 / max(kii + diag[k] - 2 K_ik, 1e-12),
///   d = (up_best + err[k]) - low_off[k],
/// over the positions with d > 0 (I_low members violating against
/// up_best), or kNoPosition when none has d > 0. K_ik is read from
/// row_i[active[k]] (row i by original index) and copied to
/// row_i_out[k], so the caller keeps row i in position order for the
/// refresh that follows. Most divisions are skipped by an exact
/// prefilter (smo_scan.cc states the argument); the chosen position is
/// the one a plain divide-everywhere scan from -inf would choose.
size_t SmoSelectJ(const SmoActiveView& view, const float* row_i,
                  double kii, double up_best, float* row_i_out);

/// Per-step Adam constants for the MLP kernels. one_minus_beta1/2 hold
/// 1 - beta, the value the scalar update computes inline.
struct MlpAdam {
  double lr = 0.0, beta1 = 0.0, beta2 = 0.0;
  double one_minus_beta1 = 0.0, one_minus_beta2 = 0.0, eps = 0.0;
  double bias1 = 0.0, bias2 = 0.0;  ///< 1 - beta^t for this step t
  double inv_bs = 0.0;              ///< 1 / minibatch rows
  double lambda = 0.0;              ///< L2 penalty; joins the gradient
                                    ///< when `decay`
};

/// A dense forward block's rows are padded to a multiple of this (two
/// vectors of rows at the widest build).
inline constexpr size_t kMlpRowPad = 8;

/// The MLP's vector kernels (ml/ann/mlp.cc is their caller). Each lane
/// of a vector holds an independent element (a hidden unit, a row of a
/// block or a parameter), and each vector operation is the scalar IEEE
/// operation lane by lane, with nothing fused: every floating-point sum
/// keeps the operand order of the plain one-row-at-a-time algorithm, so
/// every build writes the same bits (tests/mlp_kernel_parity_test.cc).
/// Matrices are row-major unless stated.
struct MlpKernels {
  /// One row's first hidden layer: h = ReLU(b1 + the active units'
  /// h1-wide columns, added in unit order); unit u's column is at
  /// cols + u * h1.
  void (*sparse_forward)(const double* b1, const double* cols,
                         const uint32_t* units, size_t n_units, size_t h1,
                         double* h);
  /// A dense layer over a block of `padded` rows (a multiple of
  /// kMlpRowPad), transposed: x is in x padded, z is out x padded, and
  /// z[o][r] = b[o] + sum_k w[o][k] * x[k][r] in input order, then ReLU
  /// when `relu`; w is out x in.
  void (*dense_forward)(const double* w, const double* b, const double* x,
                        size_t in, size_t out, size_t padded, bool relu,
                        double* z);
  /// A dense layer's weight gradients for a block of rows (a: rows x
  /// in, the layer's input activations): gw[o][k] += delta * a[row][k]
  /// over output o's nonzero deltas, listed in row order as a CSR over
  /// outputs (start: out + 1 offsets into rows / deltas).
  void (*weight_grads)(const double* a, size_t in, size_t out,
                       const uint32_t* start, const uint32_t* rows,
                       const double* deltas, double* gw);
  /// A dense layer's input deltas for a block of rows: din[r][k] = sum
  /// over row r's nonzero output deltas, in output order (a CSR over
  /// rows), of delta * w[o][k], kept where a[r][k] > 0.
  void (*input_deltas)(const double* w, const double* a, size_t in,
                       size_t num_rows, const uint32_t* start,
                       const uint32_t* outs, const double* deltas,
                       double* din);
  /// One Adam step on n parameters from their summed minibatch
  /// gradients g: grad = g * inv_bs (+ lambda * p with `decay`), then
  /// the moment updates and p -= lr * mhat / (sqrt(vhat) + eps).
  void (*adam_step)(const MlpAdam& c, bool decay, const double* g, size_t n,
                    double* p, double* m, double* v);
  /// adam_step on one width-wide column whose gradient is the sum of
  /// the listed rows' deltas (row r's at deltas + r * width), added from
  /// +0.0 in list order, in registers: the first layer's column of a
  /// unit active in those rows (the one-hot input is 1 there), or its
  /// bias over every row.
  void (*column_adam_step)(const MlpAdam& c, bool decay,
                           const double* deltas, size_t width,
                           const uint32_t* rows, size_t n_rows, double* p,
                           double* m, double* v);
};

/// The MLP kernels this CPU runs: four-double AVX2 vectors where the CPU
/// has AVX2, else two-double baseline vectors. Picked from the CPU alone;
/// both write the same bits.
const MlpKernels& HostMlpKernels();

/// The registry's five packed-path entries (common/counters.h defines
/// each); build_words / rows is the average words per row.
struct PackedStats {
  uint64_t builds = 0;
  uint64_t rows = 0;
  uint64_t build_words = 0;
  uint64_t evals = 0;
  uint64_t eval_words = 0;
};

/// The packed-path totals accumulated so far (all threads).
PackedStats GlobalPackedStats();

}  // namespace simd
}  // namespace hamlet

#endif  // HAMLET_PACKED_SIMD_H_
