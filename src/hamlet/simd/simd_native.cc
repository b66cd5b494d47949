// The two match-counting routines behind simd::PackedMatchCounts.
// Isolated in their own translation unit so the hardware-popcount one
// can carry __attribute__((target("popcnt"))) on x86-64 — the rest of
// the library still compiles for the baseline ISA, and simd.cc only
// routes there after __builtin_cpu_supports confirms the feature.

#include "hamlet/simd/simd_native.h"

#include "hamlet/simd/simd.h"

namespace hamlet {
namespace simd {
namespace detail {

namespace {

/// Mismatched fields of one XOR word via the guard-bit carry trick: a
/// field of x + add_mask carries into its guard bit iff the field of x is
/// non-zero, and the carry cannot cross fields (max field sum is
/// 2^field_bits - 2). Padding fields are zero in both rows, so they never
/// carry. Shared by both routines below; only the popcount differs.
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

/// The popcounts of the row loops below: bit-twiddling on any 64-bit
/// host, or the hardware instruction. NativeCount is always inlined, so
/// inside a target("popcnt") function its builtin is one POPCNT (on
/// aarch64, NEON cnt).
struct SwarCount {
  static uint32_t Count(uint64_t x) { return PopcountSwar(x); }
};
struct NativeCount {
  [[gnu::always_inline]] static uint32_t Count(uint64_t x) {
    return static_cast<uint32_t>(__builtin_popcountll(x));
  }
};

template <typename Pop>
[[gnu::always_inline]] inline size_t RowMismatch(const PackedLayout& layout,
                                                 const uint64_t* a,
                                                 const uint64_t* b) {
  size_t mismatches = 0;
  for (size_t w = 0; w < layout.words_per_row; ++w) {
    mismatches += Pop::Count(MismatchGuardBits(a[w] ^ b[w], layout));
  }
  return mismatches;
}

/// Row number k of a batched count: indices[k] with an index list, k
/// without one.
template <bool kIndexed>
[[gnu::always_inline]] inline size_t BatchRowNumber(const int32_t* indices,
                                                    size_t k) {
  return kIndexed ? static_cast<size_t>(indices[k]) : k;
}

/// The batched count for rows of kWords words (1 or 2): the query words
/// stay in registers and each row is one straight-line step, with no
/// per-row word loop. A row's count is the same sum of per-word counts
/// as RowMismatch's.
template <typename Pop, size_t kWords, bool kIndexed>
[[gnu::always_inline]] inline void MatchCountsFixed(
    const PackedLayout& layout, const uint64_t* query, const uint64_t* rows,
    const int32_t* indices, size_t n, uint32_t* counts) {
  static_assert(kWords == 1 || kWords == 2, "one- and two-word rows only");
  const uint32_t d = static_cast<uint32_t>(layout.num_features);
  const uint64_t add = layout.add_mask, guard = layout.guard_mask;
  const uint64_t q0 = query[0], q1 = kWords == 2 ? query[1] : 0;
  for (size_t k = 0; k < n; ++k) {
    const uint64_t* row = rows + BatchRowNumber<kIndexed>(indices, k) * kWords;
    uint32_t mismatches = Pop::Count(((q0 ^ row[0]) + add) & guard);
    if (kWords == 2) mismatches += Pop::Count(((q1 ^ row[1]) + add) & guard);
    counts[k] = d - mismatches;
  }
}

template <typename Pop, bool kIndexed>
[[gnu::always_inline]] inline void MatchCountsShaped(
    const PackedLayout& layout, const uint64_t* query, const uint64_t* rows,
    const int32_t* indices, size_t n, uint32_t* counts) {
  const size_t words = layout.words_per_row;
  if (words == 1) {
    MatchCountsFixed<Pop, 1, kIndexed>(layout, query, rows, indices, n,
                                       counts);
  } else if (words == 2) {
    MatchCountsFixed<Pop, 2, kIndexed>(layout, query, rows, indices, n,
                                       counts);
  } else {
    const size_t d = layout.num_features;
    for (size_t k = 0; k < n; ++k) {
      const uint64_t* row = rows + BatchRowNumber<kIndexed>(indices, k) * words;
      counts[k] =
          static_cast<uint32_t>(d - RowMismatch<Pop>(layout, query, row));
    }
  }
}

/// simd::PackedMatchCounts over one popcount: straight-line loops for
/// one- and two-word rows (the common kernel-row shapes), the per-word
/// loop for longer ones, each with and without an index list.
template <typename Pop>
[[gnu::always_inline]] inline void MatchCountsWith(
    const PackedLayout& layout, const uint64_t* query, const uint64_t* rows,
    const int32_t* indices, size_t n, uint32_t* counts) {
  if (indices != nullptr) {
    MatchCountsShaped<Pop, true>(layout, query, rows, indices, n, counts);
  } else {
    MatchCountsShaped<Pop, false>(layout, query, rows, indices, n, counts);
  }
}

}  // namespace

void MatchCountsSwar(const PackedLayout& layout, const uint64_t* query,
                     const uint64_t* rows, const int32_t* indices, size_t n,
                     uint32_t* counts) {
  MatchCountsWith<SwarCount>(layout, query, rows, indices, n, counts);
}

// The hardware-popcount routine carries target("popcnt") on x86-64, where
// simd.cc calls it only after NativeSupported(). aarch64 has no runtime
// feature question: __builtin_popcountll lowers to the NEON cnt/addv
// sequence on every ARMv8 core. Other hosts report no hardware popcount,
// so simd.cc never routes there.
#ifdef HAMLET_X86_NATIVE
#define HAMLET_POPCNT_TARGET __attribute__((target("popcnt")))

bool NativeSupported() {
  static const bool supported = __builtin_cpu_supports("popcnt");
  return supported;
}

bool Avx2Supported() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}
#else
#define HAMLET_POPCNT_TARGET

bool NativeSupported() {
#ifdef __aarch64__
  return true;
#else
  return false;
#endif
}
#endif

HAMLET_POPCNT_TARGET void MatchCountsPopcount(
    const PackedLayout& layout, const uint64_t* query, const uint64_t* rows,
    const int32_t* indices, size_t n, uint32_t* counts) {
  MatchCountsWith<NativeCount>(layout, query, rows, indices, n, counts);
}

#undef HAMLET_POPCNT_TARGET

}  // namespace detail
}  // namespace simd
}  // namespace hamlet
