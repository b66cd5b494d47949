// In-memory span tracing for the benchmark, recorded from outside the
// library: the benchmark opens a span around each call it makes into a
// layer's public functions (and the TracedClassifier wrapper opens one
// around every Fit / PredictAll), so the library itself is never
// modified or read for timing.
//
// A span records its name, start, end, parent, wall time, thread-CPU
// time and the allocations its thread made while it was open. Spans are
// kept in memory and written out once, when the run ends.
//
// Parenting: a span's parent is the innermost open span on its own
// thread. A span opened on a thread with no open span (a pool worker
// running a grid point, the server's Run() thread) takes the innermost
// open "ambient" span instead: stages and the spans that fan work out to
// other threads (ml.grid.search) are ambient, so fits run by
// ml::GridSearch on pool workers still hang under their search span.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hamlet/ml/svm/kernel_cache.h"
#include "hamlet/ml/svm/smo.h"
#include "hamlet/simd/simd.h"

namespace perfbench {

/// Allocations made by one thread (alloc_counter.cc replaces the global
/// operator new to count them; without it they stay 0).
struct AllocTotals {
  uint64_t count = 0;
  uint64_t bytes = 0;
};
/// Counts one allocation of `bytes` against the calling thread.
void NoteAllocation(size_t bytes);

/// Nanoseconds on the steady clock, and the calling thread's CPU time.
int64_t NowNs();
int64_t ThreadCpuNs();
/// User + system CPU of the whole process.
double ProcessCpuSeconds();

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root
  uint32_t thread = 0;  ///< small per-process thread index
  const char* name = "";  ///< a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  uint64_t rows = 0;  ///< work items the span handled (rows predicted, ...)

  int64_t wall_ns() const { return end_ns - start_ns; }
};

/// The library's public counters, read before and after each stage.
struct Counters {
  hamlet::ml::SmoTotals smo;
  hamlet::ml::KernelCacheTotals cache;
  hamlet::simd::PackedStats packed;

  static Counters Read();
  Counters operator-(const Counters& earlier) const;
  Counters& operator+=(const Counters& other);
};

/// One stage's counter delta, keyed by the span that bounded the stage.
struct StageRecord {
  uint32_t span = 0;
  const char* name = "";
  Counters delta;
};

/// Tracing is off unless enabled; a disabled ScopedSpan costs one relaxed
/// load. Switch it only while no span is open.
void EnableTracing(bool on);
bool TracingEnabled();
/// Snapshot of every closed span / stage so far.
std::vector<Span> CollectSpans();
std::vector<StageRecord> CollectStages();

class ScopedSpan {
 public:
  /// `ambient`: spans opened meanwhile on threads with no open span of
  /// their own take this one as their parent. Open ambient spans from one
  /// thread only, properly nested.
  explicit ScopedSpan(const char* name, bool ambient = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_rows(uint64_t rows) { span_.rows = rows; }
  uint32_t id() const { return span_.id; }

 private:
  bool active_ = false;
  Span span_;
  AllocTotals alloc_start_;
  uint32_t saved_ambient_ = 0;
  bool ambient_ = false;
};

/// A span that also records the library counters' delta over its
/// lifetime as a StageRecord (counters are read whether or not tracing
/// is on; the record is kept only when it is).
class ScopedStage {
 public:
  explicit ScopedStage(const char* name);
  ~ScopedStage();
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  ScopedSpan span_;
  const char* name_;
  Counters start_;
};

/// Time a span spent outside its children: its duration minus the part
/// of [start, end) covered by the union of the children's intervals
/// (children may overlap when they run on several threads).
int64_t SelfTimeNs(int64_t start_ns, int64_t end_ns,
                   std::vector<std::pair<int64_t, int64_t>> children);

/// Writes one JSON object per span (with its self time) and per stage to
/// `path`. Returns false when the file cannot be written.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::vector<StageRecord>& stages);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
