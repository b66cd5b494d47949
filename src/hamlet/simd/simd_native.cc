// The match-counting word routines. Isolated in their own translation
// unit so the x86-64 functions can carry __attribute__((target(...))) —
// the rest of the library still compiles for the baseline ISA, and
// simd.cc only routes here after __builtin_cpu_supports confirms the
// feature.

#include "hamlet/simd/simd_native.h"

#include "hamlet/simd/simd.h"

#ifdef HAMLET_X86_NATIVE
#include <immintrin.h>
#endif

namespace hamlet {
namespace simd {
namespace detail {

namespace {

/// Mismatched fields of one XOR word via the guard-bit carry trick: a
/// field of x + add_mask carries into its guard bit iff the field of x is
/// non-zero, and the carry cannot cross fields (max field sum is
/// 2^field_bits - 2). Padding fields are zero in both rows, so they never
/// carry. Shared by every routine below; only the popcount differs.
inline uint64_t MismatchGuardBits(uint64_t x, const PackedLayout& layout) {
  return (x + layout.add_mask) & layout.guard_mask;
}

/// Bit-twiddling population count (Hacker's Delight).
inline uint32_t PopcountSwar(uint64_t x) {
  x = x - ((x >> 1) & 0x5555555555555555ull);
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<uint32_t>((x * 0x0101010101010101ull) >> 56);
}

/// Row k of a batched count: rows[indices[k]] with an index list,
/// rows[k] without one.
inline const uint64_t* BatchRow(const uint64_t* rows, const int32_t* indices,
                                size_t k, size_t words_per_row) {
  const size_t r = indices != nullptr ? static_cast<size_t>(indices[k]) : k;
  return rows + r * words_per_row;
}

inline size_t RowMismatchSwar(const PackedLayout& layout, const uint64_t* a,
                              const uint64_t* b) {
  size_t mismatches = 0;
  for (size_t w = 0; w < layout.words_per_row; ++w) {
    mismatches += PopcountSwar(MismatchGuardBits(a[w] ^ b[w], layout));
  }
  return mismatches;
}

}  // namespace

size_t MismatchSwar(const PackedLayout& layout, const uint64_t* a,
                    const uint64_t* b) {
  return RowMismatchSwar(layout, a, b);
}

void MatchCountsSwar(const PackedLayout& layout, const uint64_t* query,
                     const uint64_t* rows, const int32_t* indices, size_t n,
                     uint32_t* counts) {
  const size_t d = layout.num_features;
  for (size_t k = 0; k < n; ++k) {
    const uint64_t* row = BatchRow(rows, indices, k, layout.words_per_row);
    counts[k] = static_cast<uint32_t>(d - RowMismatchSwar(layout, query, row));
  }
}

size_t MismatchSwarBounded(const PackedLayout& layout, const uint64_t* a,
                           const uint64_t* b, size_t limit) {
  size_t mismatches = 0;
  for (size_t w = 0; w < layout.words_per_row; ++w) {
    mismatches += PopcountSwar(MismatchGuardBits(a[w] ^ b[w], layout));
    if (mismatches >= limit) return mismatches;
  }
  return mismatches;
}

#ifdef HAMLET_X86_NATIVE

bool NativeSupported() {
  static const bool supported = __builtin_cpu_supports("popcnt");
  return supported;
}

bool Avx2Supported() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}

namespace {

__attribute__((target("popcnt"))) inline size_t RowMismatchPopcount(
    const PackedLayout& layout, const uint64_t* a, const uint64_t* b) {
  size_t mismatches = 0;
  for (size_t w = 0; w < layout.words_per_row; ++w) {
    mismatches += static_cast<size_t>(
        _mm_popcnt_u64(MismatchGuardBits(a[w] ^ b[w], layout)));
  }
  return mismatches;
}

/// Four words per iteration through AVX2 XOR/add/and, popcounted from a
/// spilled register. Only worth the lane shuffling once rows span
/// several cache lines.
__attribute__((target("avx2,popcnt"))) inline size_t RowMismatchAvx2(
    const PackedLayout& layout, const uint64_t* a, const uint64_t* b) {
  const __m256i add =
      _mm256_set1_epi64x(static_cast<long long>(layout.add_mask));
  const __m256i guard =
      _mm256_set1_epi64x(static_cast<long long>(layout.guard_mask));
  size_t mismatches = 0;
  size_t w = 0;
  for (; w + 4 <= layout.words_per_row; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    const __m256i guarded = _mm256_and_si256(
        _mm256_add_epi64(_mm256_xor_si256(va, vb), add), guard);
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), guarded);
    mismatches += static_cast<size_t>(
        _mm_popcnt_u64(lanes[0]) + _mm_popcnt_u64(lanes[1]) +
        _mm_popcnt_u64(lanes[2]) + _mm_popcnt_u64(lanes[3]));
  }
  for (; w < layout.words_per_row; ++w) {
    mismatches += static_cast<size_t>(
        _mm_popcnt_u64(MismatchGuardBits(a[w] ^ b[w], layout)));
  }
  return mismatches;
}

}  // namespace

__attribute__((target("popcnt"))) size_t MismatchPopcount(
    const PackedLayout& layout, const uint64_t* a, const uint64_t* b) {
  return RowMismatchPopcount(layout, a, b);
}

__attribute__((target("popcnt"))) void MatchCountsPopcount(
    const PackedLayout& layout, const uint64_t* query, const uint64_t* rows,
    const int32_t* indices, size_t n, uint32_t* counts) {
  const size_t d = layout.num_features;
  for (size_t k = 0; k < n; ++k) {
    const uint64_t* row = BatchRow(rows, indices, k, layout.words_per_row);
    counts[k] =
        static_cast<uint32_t>(d - RowMismatchPopcount(layout, query, row));
  }
}

__attribute__((target("popcnt"))) size_t MismatchPopcountBounded(
    const PackedLayout& layout, const uint64_t* a, const uint64_t* b,
    size_t limit) {
  size_t mismatches = 0;
  for (size_t w = 0; w < layout.words_per_row; ++w) {
    mismatches += static_cast<size_t>(
        _mm_popcnt_u64(MismatchGuardBits(a[w] ^ b[w], layout)));
    if (mismatches >= limit) return mismatches;
  }
  return mismatches;
}

__attribute__((target("avx2,popcnt"))) size_t MismatchAvx2(
    const PackedLayout& layout, const uint64_t* a, const uint64_t* b) {
  return RowMismatchAvx2(layout, a, b);
}

__attribute__((target("avx2,popcnt"))) void MatchCountsAvx2(
    const PackedLayout& layout, const uint64_t* query, const uint64_t* rows,
    const int32_t* indices, size_t n, uint32_t* counts) {
  const size_t d = layout.num_features;
  for (size_t k = 0; k < n; ++k) {
    const uint64_t* row = BatchRow(rows, indices, k, layout.words_per_row);
    counts[k] = static_cast<uint32_t>(d - RowMismatchAvx2(layout, query, row));
  }
}

#else  // !HAMLET_X86_NATIVE

// aarch64 has no runtime feature question: __builtin_popcountll lowers
// to the NEON cnt/addv sequence on every ARMv8 core. Other hosts report
// no hardware popcount, so simd.cc never routes them here.
bool NativeSupported() {
#ifdef __aarch64__
  return true;
#else
  return false;
#endif
}

namespace {

inline size_t RowMismatchPopcount(const PackedLayout& layout,
                                  const uint64_t* a, const uint64_t* b) {
  size_t mismatches = 0;
  for (size_t w = 0; w < layout.words_per_row; ++w) {
    mismatches += static_cast<size_t>(
        __builtin_popcountll(MismatchGuardBits(a[w] ^ b[w], layout)));
  }
  return mismatches;
}

}  // namespace

size_t MismatchPopcount(const PackedLayout& layout, const uint64_t* a,
                        const uint64_t* b) {
  return RowMismatchPopcount(layout, a, b);
}

void MatchCountsPopcount(const PackedLayout& layout, const uint64_t* query,
                         const uint64_t* rows, const int32_t* indices,
                         size_t n, uint32_t* counts) {
  const size_t d = layout.num_features;
  for (size_t k = 0; k < n; ++k) {
    const uint64_t* row = BatchRow(rows, indices, k, layout.words_per_row);
    counts[k] =
        static_cast<uint32_t>(d - RowMismatchPopcount(layout, query, row));
  }
}

size_t MismatchPopcountBounded(const PackedLayout& layout, const uint64_t* a,
                               const uint64_t* b, size_t limit) {
  size_t mismatches = 0;
  for (size_t w = 0; w < layout.words_per_row; ++w) {
    mismatches += static_cast<size_t>(
        __builtin_popcountll(MismatchGuardBits(a[w] ^ b[w], layout)));
    if (mismatches >= limit) return mismatches;
  }
  return mismatches;
}

#endif  // HAMLET_X86_NATIVE

}  // namespace detail
}  // namespace simd
}  // namespace hamlet
