// Internal interface between the public entry points (simd.cc) and the
// routines behind them: the two match-counting routines
// (simd_native.cc), the SMO scans (smo_scan.cc) and the two builds of
// the MLP kernels (mlp_kernels.cc). Both match-counting routines run the
// same guard-bit carry trick per word — only the popcount differs — so
// they return the same counts for every input; every SMO scan returns
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

/// True when this host has a hardware popcount (POPCNT on x86-64,
/// unconditional on aarch64, false elsewhere). Cached after the first
/// call.
bool NativeSupported();

/// The match counts of simd::PackedMatchCounts, one per popcount: SWAR
/// on any host, hardware popcount only when NativeSupported().
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
