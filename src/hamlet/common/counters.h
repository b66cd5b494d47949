// The one registry of process-wide work counters.
//
// Every deterministic work count the library keeps is one entry of a
// single array of relaxed atomics. A counting site accumulates locally
// and calls Add once when its unit of work ends (a solve, a cache's
// lifetime, a matrix build, a query scan), so concurrent fits only share
// the sums. The totals are monotone and never reset: a reader scopes
// them to its own work by subtracting an earlier Snapshot, so scopes
// nest. The hamlet_lint rule counter-home keeps every namespace-scope
// counter atomic in counters.cc.

#ifndef HAMLET_COMMON_COUNTERS_H_
#define HAMLET_COMMON_COUNTERS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace hamlet {
namespace counters {

enum class Counter : size_t {
  // SMO solves that entered the pairwise loop (single-class early
  // returns are excluded), their pairwise updates, shrink passes that
  // deactivated points, full-gradient reconstructions (the 10x-tolerance
  // unshrink, the final pre-convergence check, stuck-pair rescues), and
  // the solves that returned converged == false.
  kSmoFits,
  kSmoIterations,
  kSmoShrinks,
  kSmoUnshrinks,
  kSmoUnconverged,
  // KernelCache Row() calls served from a resident row / that computed
  // one, flushed when the cache is destroyed.
  kKernelCacheHits,
  kKernelCacheMisses,
  // PackedCodeMatrix and support-vector builds, the rows they packed and
  // the words holding them; pairwise evaluations on the packed path and
  // the words they scanned (an upper bound for a 1-NN scan that stops
  // at an exact match).
  kPackedBuilds,
  kPackedRows,
  kPackedBuildWords,
  kPackedEvals,
  kPackedEvalWords,
  kNumCounters
};

inline constexpr size_t kNumCounters =
    static_cast<size_t>(Counter::kNumCounters);

namespace detail {
/// The registry's storage, defined in counters.cc; written only by Add.
extern std::array<std::atomic<uint64_t>, kNumCounters> g_counts;
}  // namespace detail

/// Adds `n` to `counter` (one relaxed atomic add).
inline void Add(Counter counter, uint64_t n) {
  detail::g_counts[static_cast<size_t>(counter)].fetch_add(
      n, std::memory_order_relaxed);
}

/// Every counter's value at one moment (relaxed loads: a snapshot taken
/// while fits run is not a consistent cut).
class Snapshot {
 public:
  uint64_t operator[](Counter counter) const {
    return values_[static_cast<size_t>(counter)];
  }
  /// Entry-wise difference: the work counted between `start` and this.
  Snapshot operator-(const Snapshot& start) const;

 private:
  friend Snapshot Read();
  std::array<uint64_t, kNumCounters> values_{};
};

/// The totals accumulated so far by every thread of the process.
Snapshot Read();

}  // namespace counters
}  // namespace hamlet

#endif  // HAMLET_COMMON_COUNTERS_H_
