// Shared-memory parallel execution primitives.
//
// Every hot loop in hamlet (grid-search points, Monte-Carlo runs, scoring
// rows) is a fan-out over independent indices; ParallelFor/ParallelMap run
// such loops on a lazily-started std::thread pool sized by HAMLET_THREADS
// (default: hardware_concurrency; 1 = exact serial execution with no pool).
//
// Determinism contract: results are keyed by index, never by completion
// order, so every primitive here produces bit-identical output at any
// thread count. Callers are responsible for making the body itself
// index-deterministic (derive per-index RNG seeds from `i`; never share a
// generator across indices).
//
// Nesting: a ParallelFor issued from inside another ParallelFor body runs
// serially inline on the calling thread. This keeps inner loops (e.g.
// Accuracy inside a grid-search worker) deadlock-free while the outermost
// loop owns the pool.

#ifndef HAMLET_COMMON_PARALLEL_H_
#define HAMLET_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "hamlet/common/status.h"
#include "hamlet/common/attributes.h"

namespace hamlet {
namespace parallel {

/// max(1, std::thread::hardware_concurrency()).
size_t HardwareThreads();

/// Thread count requested via HAMLET_THREADS: an integer in [1, 1024];
/// the default is HardwareThreads(). Grammar and the invalid-value
/// warning are common/env.h's.
size_t ConfiguredThreads();

/// A fixed-size pool of worker threads executing index-range jobs. The
/// `num_threads` budget counts the submitting thread: a pool of size T
/// spawns T-1 workers and the caller participates, so T=1 never spawns a
/// thread and runs everything inline in submission order. Workers start
/// lazily on the first parallel submission.
///
/// One job runs at a time; concurrent submissions from different external
/// threads are serialized. Destroying the pool while a job is in flight is
/// undefined behaviour.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  /// Invokes body(i) for every i in [0, n), distributing chunks of indices
  /// across the pool. Blocks until all indices complete. If any body call
  /// throws, the first exception caught is rethrown on the calling thread
  /// after the loop drains (remaining indices still run).
  void For(size_t n, const std::function<void(size_t)>& body);

  /// Status-aware For: runs body(i) for every i and returns the non-OK
  /// Status with the lowest index, or OK. With num_threads() == 1 this is
  /// the exact serial protocol (stops at the first error, which is the
  /// lowest-index error by construction); at higher thread counts all
  /// indices execute but the returned Status is identical.
  HAMLET_NODISCARD Status ForStatus(
      size_t n, const std::function<Status(size_t)>& body);

  /// Maps fn over [0, n) into a vector ordered by index. T must be
  /// default-constructible and movable.
  template <typename T>
  std::vector<T> Map(size_t n, const std::function<T(size_t)>& fn) {
    std::vector<T> out(n);
    For(n, [&](size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  struct Impl;
  const size_t num_threads_;
  Impl* impl_;  // pimpl keeps <thread>/<condition_variable> out of the API
};

/// The process-wide pool, created on first use with ConfiguredThreads().
ThreadPool& DefaultPool();

/// ParallelFor/ParallelForStatus/ParallelMap on DefaultPool().
void ParallelFor(size_t n, const std::function<void(size_t)>& body);
HAMLET_NODISCARD Status ParallelForStatus(
    size_t n, const std::function<Status(size_t)>& body);

template <typename T>
std::vector<T> ParallelMap(size_t n, const std::function<T(size_t)>& fn) {
  return DefaultPool().Map<T>(n, fn);
}

/// Drops the default pool so the next use re-reads HAMLET_THREADS. For
/// tests only; must not race with in-flight parallel work.
void ResetDefaultPoolForTesting();

}  // namespace parallel
}  // namespace hamlet

#endif  // HAMLET_COMMON_PARALLEL_H_
