// Capability-annotated synchronization primitives.
//
// Clang's thread-safety analysis (common/thread_annotations.h) can only
// reason about lock types marked as capabilities, which std::mutex is
// not. These thin wrappers forward straight to the standard primitives
// — zero behavioural difference, identical TSan instrumentation — while
// carrying the annotations that make HAMLET_GUARDED_BY members
// checkable at compile time.
//
// Idiom:
//   - hamlet::Mutex for any member/global mutex whose guarded data is
//     annotated; hamlet::MutexLock as the scoped guard.
//   - hamlet::CondVar waits take the Mutex itself and are used in
//     explicit `while (!cond) cv.Wait(mu);` loops. There are
//     deliberately no predicate-lambda overloads: the analysis treats a
//     lambda body as a separate unannotated function, so a predicate
//     reading guarded members would need a per-lambda escape hatch —
//     the explicit loop keeps the condition inside the annotated
//     function body where the analysis can see the lock is held.
//   - Raw Lock()/Unlock() exist for the few cross-scope protocols
//     (worker loops that drop the lock around a work chunk); prefer
//     MutexLock everywhere else.

#ifndef HAMLET_COMMON_MUTEX_H_
#define HAMLET_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "hamlet/common/thread_annotations.h"

namespace hamlet {

/// Annotated non-recursive mutex; see the header comment for idiom.
class HAMLET_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() HAMLET_ACQUIRE() { mu_.lock(); }
  void Unlock() HAMLET_RELEASE() { mu_.unlock(); }

  // BasicLockable spelling so std::condition_variable_any (and generic
  // code) can drive this mutex directly.
  void lock() HAMLET_ACQUIRE() { mu_.lock(); }      // NOLINT
  void unlock() HAMLET_RELEASE() { mu_.unlock(); }  // NOLINT

 private:
  std::mutex mu_;
};

/// RAII scoped lock over hamlet::Mutex (std::lock_guard equivalent that
/// the analysis understands).
class HAMLET_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HAMLET_ACQUIRE(mu) : mu_(&mu) {
    mu_->Lock();
  }
  ~MutexLock() HAMLET_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable bound to hamlet::Mutex. Waits atomically release
/// and re-acquire the mutex; the HAMLET_REQUIRES annotation makes
/// calling a wait without the lock a compile error under the analysis.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified; always re-checks the condition in a loop at
  /// the call site (spurious wakeups are allowed).
  void Wait(Mutex& mu) HAMLET_REQUIRES(mu) { cv_.wait(mu); }

  /// Blocks until notified or `deadline`; returns false on timeout.
  /// steady_clock only — the determinism/monotonicity contract bans
  /// wall-clock time in the library (tools/hamlet_lint.py enforces it).
  bool WaitUntil(Mutex& mu,
                 std::chrono::steady_clock::time_point deadline)
      HAMLET_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace hamlet

#endif  // HAMLET_COMMON_MUTEX_H_
