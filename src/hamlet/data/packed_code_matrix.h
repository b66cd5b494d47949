// Bit-packed companion of CodeMatrix for the popcount hot loops.
//
// A CodeMatrix spends a full 4-byte lane per categorical code; the
// match-counting loops (1-NN Hamming distance, the linear/overlap SVM
// kernels) only ever ask "equal or not", so the codes compress into
// fixed-width bit fields — 16-64 codes per cache line — and the
// comparisons become XOR + carry trick + popcount over uint64_t words
// (simd/simd.h has the field layout and the backend implementations).
//
// A PackedCodeMatrix is built once per Fit/PredictAll next to the dense
// matrix it mirrors and is immutable afterwards. Rows are comparable only
// under the same PackedLayout; the layout from
// simd::PackedLayout::ForDomains over the training domain sizes is the
// canonical choice, and query rows are packed into that same layout via
// ThreadLocalPackScratch at prediction time.

#ifndef HAMLET_DATA_PACKED_CODE_MATRIX_H_
#define HAMLET_DATA_PACKED_CODE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hamlet/data/code_matrix.h"
#include "hamlet/simd/simd.h"

namespace hamlet {

namespace detail {
/// Reports an out-of-bounds PackedCodeMatrix access and aborts. Out of
/// line so the checked branch stays tiny in the caller.
[[noreturn]] void PackedCodeMatrixIndexAbort(size_t i, size_t j,
                                             size_t num_rows,
                                             size_t num_features);
}  // namespace detail

/// Immutable bit-slab snapshot of a CodeMatrix's codes (labels and domain
/// sizes stay with the source matrix). Word-aligned rows of
/// layout().words_per_row uint64_t words each.
class PackedCodeMatrix {
 public:
  PackedCodeMatrix() = default;

  /// Packs every row of `m` under the canonical layout for its domain
  /// sizes (rows packed this way are comparable with any other matrix or
  /// query packed from the same domains).
  explicit PackedCodeMatrix(const CodeMatrix& m);

  /// Packs every row of `m` under a caller-chosen layout (must cover the
  /// matrix's codes and match its feature count).
  PackedCodeMatrix(const simd::PackedLayout& layout, const CodeMatrix& m);

  /// Packs `num_rows` rows of layout.num_features codes each from a flat
  /// row-major buffer.
  PackedCodeMatrix(const simd::PackedLayout& layout, const uint32_t* codes,
                   size_t num_rows);

  const simd::PackedLayout& layout() const { return layout_; }
  size_t num_rows() const { return num_rows_; }
  /// Total words across all rows (num_rows * layout().words_per_row).
  size_t num_words() const { return words_.size(); }

  /// Packed words of row i (layout().words_per_row entries). Like
  /// CodeMatrix::at, the bounds check is active in debug builds and under
  /// HAMLET_CHECK_BOUNDS and compiles away otherwise.
  const uint64_t* row(size_t i) const {
#if !defined(NDEBUG) || defined(HAMLET_CHECK_BOUNDS)
    if (i >= num_rows_) {
      detail::PackedCodeMatrixIndexAbort(i, 0, num_rows_,
                                         layout_.num_features);
    }
#endif
    return words_.data() + i * layout_.words_per_row;
  }

  /// The whole slab: row i starts at data() + i * layout().words_per_row
  /// (the batched counts of simd::PackedMatchCounts index it directly).
  const uint64_t* data() const { return words_.data(); }

  /// Unpacks the code of (row i, feature j) — round-trip checks and
  /// debugging; hot loops compare whole rows instead.
  uint32_t code_at(size_t i, size_t j) const {
#if !defined(NDEBUG) || defined(HAMLET_CHECK_BOUNDS)
    if (i >= num_rows_ || j >= layout_.num_features) {
      detail::PackedCodeMatrixIndexAbort(i, j, num_rows_,
                                         layout_.num_features);
    }
#endif
    return layout_.UnpackCode(row(i), j);
  }

 private:
  simd::PackedLayout layout_;
  size_t num_rows_ = 0;
  std::vector<uint64_t> words_;
};

/// Per-thread scratch buffer of at least `words` uint64_t entries for
/// packing one query row at prediction time (the batch path hands each
/// worker thread CodeMatrix rows one at a time, so the packed query never
/// outlives the call that packed it). The buffer is reused across calls
/// on the same thread; a second call invalidates the previous pointer.
uint64_t* ThreadLocalPackScratch(size_t words);

}  // namespace hamlet

#endif  // HAMLET_DATA_PACKED_CODE_MATRIX_H_
