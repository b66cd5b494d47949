#include "hamlet/ml/svm/kernel_cache.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "hamlet/common/counters.h"
#include "hamlet/common/env.h"

namespace hamlet {
namespace ml {

using counters::Counter;

KernelCacheTotals GlobalKernelCacheTotals() {
  const counters::Snapshot now = counters::Read();
  return {now[Counter::kKernelCacheHits], now[Counter::kKernelCacheMisses]};
}

size_t KernelCacheBytesFromEnv() {
  // The cap is 1 TiB or whatever keeps the byte product representable in
  // size_t (4095 MiB on 32-bit hosts), whichever is smaller.
  constexpr uint64_t kMaxMb = std::min<uint64_t>(
      uint64_t{1} << 20, std::numeric_limits<size_t>::max() >> 20);
  const std::optional<uint64_t> mb =
      UnsignedFromEnv("HAMLET_SMO_CACHE_MB", 1, kMaxMb);
  return mb ? static_cast<size_t>(*mb) << 20 : kDefaultKernelCacheBytes;
}

KernelCache::KernelCache(CodeMatrix matrix, const KernelConfig& kernel,
                         size_t cache_bytes)
    : matrix_(std::move(matrix)),
      packed_(matrix_),
      kernel_by_matches_(
          KernelValuesByMatches(kernel, matrix_.num_features())) {
  const size_t n = matrix_.num_rows();
  if (cache_bytes == 0) cache_bytes = KernelCacheBytesFromEnv();
  const size_t row_bytes = (n == 0 ? 1 : n) * sizeof(float);
  // Clamp to [1, max(n, 1)] rows: always one cacheable row, never more
  // slots than the problem has rows (an empty matrix keeps a single
  // dummy slot instead of budget/4 phantom ones).
  size_t rows = cache_bytes / row_bytes;
  if (rows < 1) rows = 1;
  const size_t max_rows = n > 0 ? n : 1;
  if (rows > max_rows) rows = max_rows;
  capacity_rows_ = rows;
  // A row matches itself in every field (its XOR with itself sets no
  // guard bit), so each diagonal entry is the full-match kernel value.
  // The diagonal still counts as n packed evaluations.
  diag_.assign(
      n, static_cast<float>(kernel_by_matches_[matrix_.num_features()]));
  counts_.resize(n);
  packed_evals_ += n;
  packed_words_ += static_cast<uint64_t>(n) * packed_.layout().words_per_row;
  slot_of_row_.assign(n, -1);
  row_of_slot_.assign(capacity_rows_, -1);
  prev_.assign(capacity_rows_, -1);
  next_.assign(capacity_rows_, -1);
  slots_.reserve(capacity_rows_ < 64 ? capacity_rows_ : 64);
  member_mark_.assign(n, 0);
  slot_era_.assign(capacity_rows_, 0);
  slot_full_.assign(capacity_rows_, 1);
}

KernelCache::~KernelCache() {
  counters::Add(Counter::kKernelCacheHits, hits_);
  counters::Add(Counter::kKernelCacheMisses, misses_);
  counters::Add(Counter::kPackedEvals, packed_evals_);
  counters::Add(Counter::kPackedEvalWords, packed_words_);
}

bool KernelCache::Cached(size_t i) const {
  assert(i < slot_of_row_.size());
  return slot_of_row_[i] >= 0;
}

void KernelCache::ComputeRow(size_t i, float* out) const {
  const simd::PackedLayout& layout = packed_.layout();
  const uint64_t* ri = packed_.row(i);
  const double* table = kernel_by_matches_.data();
  uint32_t* counts = counts_.data();
  // The double->float narrowing of static_cast<float>(KernelEval(...)),
  // so a cached row entry is bit-identical to the scalar kernel's. Under
  // an active restriction only the restricted columns are computed; the
  // others stay whatever the slot held before (callers must not read
  // them).
  size_t cols;
  if (restrict_idx_.empty()) {
    const size_t n = matrix_.num_rows();
    simd::PackedMatchCounts(layout, ri, packed_.data(), nullptr, n, counts);
    for (size_t t = 0; t < n; ++t) {
      out[t] = static_cast<float>(table[counts[t]]);
    }
    cols = n;
  } else {
    const int32_t* idx = restrict_idx_.data();
    cols = restrict_idx_.size();
    simd::PackedMatchCounts(layout, ri, packed_.data(), idx, cols, counts);
    for (size_t k = 0; k < cols; ++k) {
      out[static_cast<size_t>(idx[k])] = static_cast<float>(table[counts[k]]);
    }
  }
  packed_evals_ += cols;
  packed_words_ += static_cast<uint64_t>(cols) * layout.words_per_row;
}

void KernelCache::RestrictActive(const int32_t* indices, size_t count) {
  restrict_idx_.assign(indices, indices + count);
  ++restrict_serial_;
  for (size_t k = 0; k < count; ++k) {
    member_mark_[static_cast<size_t>(indices[k])] = restrict_serial_;
  }
}

void KernelCache::ClearActiveRestriction() {
  if (restrict_idx_.empty()) return;
  restrict_idx_.clear();
  // Close the era: partial rows computed under the lifted restriction
  // recompute on their next fetch; full rows stay valid.
  ++era_;
}

void KernelCache::Detach(int32_t slot) {
  const int32_t p = prev_[slot], nx = next_[slot];
  if (p >= 0) next_[p] = nx;
  else head_ = nx;
  if (nx >= 0) prev_[nx] = p;
  else tail_ = p;
  prev_[slot] = next_[slot] = -1;
}

void KernelCache::PushFront(int32_t slot) {
  prev_[slot] = -1;
  next_[slot] = head_;
  if (head_ >= 0) prev_[head_] = slot;
  head_ = slot;
  if (tail_ < 0) tail_ = slot;
}

void KernelCache::MoveToFront(int32_t slot) {
  if (head_ == slot) return;
  Detach(slot);
  PushFront(slot);
}

float KernelCache::At(size_t i, size_t j) const {
  assert(i < matrix_.num_rows() && j < matrix_.num_rows());
  if (i == j) return diag_[i];
  // While restricted, only restricted indices may be probed (a partial
  // resident row holds valid entries exactly at the restriction).
  assert(InRestriction(i) && InRestriction(j));
  if (const float* row_i = PeekRow(i)) return row_i[j];
  if (const float* row_j = PeekRow(j)) return row_j[i];
  const simd::PackedLayout& layout = packed_.layout();
  uint32_t matches = 0;
  simd::PackedMatchCounts(layout, packed_.row(i), packed_.row(j), nullptr, 1,
                          &matches);
  ++packed_evals_;
  packed_words_ += layout.words_per_row;
  return static_cast<float>(kernel_by_matches_[matches]);
}

const float* KernelCache::PeekRow(size_t i) const {
  assert(i < matrix_.num_rows());
  const int32_t slot = slot_of_row_[i];
  if (slot < 0 || !SlotUsable(slot)) return nullptr;
  return slots_[static_cast<size_t>(slot)].data();
}

const float* KernelCache::Row(size_t i) {
  assert(i < matrix_.num_rows());
  assert(InRestriction(i));
  int32_t slot = slot_of_row_[i];
  if (slot >= 0 && SlotUsable(slot)) {
    ++hits_;
    MoveToFront(slot);
    return slots_[static_cast<size_t>(slot)].data();
  }
  ++misses_;
  if (slot >= 0) {
    // Resident but computed under a restriction that has since been
    // lifted: its dead columns are stale, so recompute in place (the
    // slot keeps its storage and becomes most recently used).
    MoveToFront(slot);
  } else if (used_slots_ < capacity_rows_) {
    slot = static_cast<int32_t>(used_slots_++);
    slots_.emplace_back(matrix_.num_rows());
    row_of_slot_[slot] = static_cast<int32_t>(i);
    slot_of_row_[i] = slot;
    PushFront(slot);
  } else {
    // Evict the least-recently-used row and reuse its storage.
    slot = tail_;
    assert(slot >= 0);
    slot_of_row_[static_cast<size_t>(row_of_slot_[slot])] = -1;
    Detach(slot);
    row_of_slot_[slot] = static_cast<int32_t>(i);
    slot_of_row_[i] = slot;
    PushFront(slot);
  }
  ComputeRow(i, slots_[static_cast<size_t>(slot)].data());
  slot_era_[static_cast<size_t>(slot)] = era_;
  slot_full_[static_cast<size_t>(slot)] =
      restrict_idx_.empty() ? uint8_t{1} : uint8_t{0};
  return slots_[static_cast<size_t>(slot)].data();
}

}  // namespace ml
}  // namespace hamlet
