// Internal interface between the public entry points (simd.cc) and the
// routines behind them: the match-counting word routines
// (simd_native.cc), the SMO scans (smo_scan.cc) and the two builds of
// the MLP kernels (mlp_kernels.cc). Every word routine runs the same
// guard-bit carry trick per word — only the popcount differs — so all
// of them return the same count for every input; every SMO scan returns
// the same positions and error bits; both MLP builds write the same
// bits. Exposed so the parity suites can check each one directly;
// include hamlet/simd/simd.h for the public API.

#ifndef HAMLET_PACKED_SIMD_NATIVE_H_
#define HAMLET_PACKED_SIMD_NATIVE_H_

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAMLET_X86_NATIVE 1
#endif

namespace hamlet {
namespace simd {

struct MlpKernels;
struct PackedLayout;
struct SmoActiveView;
struct SmoExtremes;
struct SmoRefresh;

namespace detail {

/// Portable fallback: bit-twiddling popcount, any 64-bit host.
size_t MismatchSwar(const PackedLayout& layout, const uint64_t* a,
                    const uint64_t* b);

/// Early-exit variant: stops once the running count reaches `limit`.
size_t MismatchSwarBounded(const PackedLayout& layout, const uint64_t* a,
                           const uint64_t* b, size_t limit);

/// True when this host has a hardware popcount (POPCNT on x86-64,
/// unconditional on aarch64, false elsewhere). Cached after the first
/// call.
bool NativeSupported();

/// Hardware popcount, one word at a time; only call when
/// NativeSupported().
size_t MismatchPopcount(const PackedLayout& layout, const uint64_t* a,
                        const uint64_t* b);

/// Early-exit variant: stops once the running count reaches `limit`.
size_t MismatchPopcountBounded(const PackedLayout& layout, const uint64_t* a,
                               const uint64_t* b, size_t limit);

/// Batched match counts (the contract of simd::PackedMatchCounts), one
/// per word routine: SWAR on any host, hardware popcount only when
/// NativeSupported().
void MatchCountsSwar(const PackedLayout& layout, const uint64_t* query,
                     const uint64_t* rows, const int32_t* indices, size_t n,
                     uint32_t* counts);
void MatchCountsPopcount(const PackedLayout& layout, const uint64_t* query,
                         const uint64_t* rows, const int32_t* indices,
                         size_t n, uint32_t* counts);

/// The SMO scans (the contracts of simd::SmoScanScores / SmoRefreshScan,
/// with refresh == nullptr for the former, and simd::SmoSelectJ), one
/// position at a time; any host.
SmoExtremes SmoScanScalar(const SmoActiveView& view,
                          const SmoRefresh* refresh);
size_t SmoSelectJScalar(const SmoActiveView& view, const float* row_i,
                        double kii, double up_best, float* row_i_out);

/// The MLP kernels on two-double vectors; any host.
const MlpKernels& MlpKernelsBaseline();

#ifdef HAMLET_X86_NATIVE
/// True when the CPU has AVX2. Cached after the first call.
bool Avx2Supported();

/// Block path for long rows: four words per AVX2 step; only call when
/// NativeSupported() and Avx2Supported().
size_t MismatchAvx2(const PackedLayout& layout, const uint64_t* a,
                    const uint64_t* b);
void MatchCountsAvx2(const PackedLayout& layout, const uint64_t* query,
                     const uint64_t* rows, const int32_t* indices, size_t n,
                     uint32_t* counts);

/// The SMO scans, four positions per AVX2 step; only call when
/// Avx2Supported().
SmoExtremes SmoScanAvx2(const SmoActiveView& view,
                        const SmoRefresh* refresh);
size_t SmoSelectJAvx2(const SmoActiveView& view, const float* row_i,
                      double kii, double up_best, float* row_i_out);

/// The MLP kernels on four-double AVX2 vectors; only call them when
/// Avx2Supported().
const MlpKernels& MlpKernelsAvx2();
#endif

}  // namespace detail
}  // namespace simd
}  // namespace hamlet

#endif  // HAMLET_PACKED_SIMD_NATIVE_H_
