// Open-loop load generation: a fixed-rate schedule and the per-step
// bookkeeping that times each request from when it was DUE, not from
// when it was sent. A generator that stalls for 10 ms therefore charges
// those 10 ms to every request that fell due during the stall, which is
// the wait a real client population would have seen. How late the
// generator itself ran is kept separately (gen lag), and so is the
// backlog of requests that are due but not yet answered.

#ifndef PERFBENCH_OPENLOOP_H_
#define PERFBENCH_OPENLOOP_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

/// Request i of a step at `rate` requests/s is due at
/// start_ns + i * 1e9 / rate.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double rate)
      : start_ns_(start_ns), rate_(rate) {}

  int64_t DueNs(uint64_t i) const;

 private:
  int64_t start_ns_;
  double rate_;
};

/// What one ladder step measured.
struct StepSummary {
  double rate = 0.0;
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t failed = 0;  ///< wrong responses plus unanswered requests
  std::optional<double> p50_us;
  std::optional<double> p99_us;
  std::optional<double> gen_lag_p99_us;
  size_t latency_samples = 0;
  size_t backlog_max = 0;
  bool backlog_growing = false;
  bool aborted = false;  ///< stopped early: the backlog passed its cap
  bool meets_slo = false;
};

/// Collects one step's samples.
class StepRecorder {
 public:
  explicit StepRecorder(double rate) : rate_(rate) {}

  void OnSend(int64_t due_ns, int64_t sent_ns);
  /// A response arrived at `recv_ns`; latency runs from `due_ns`.
  void OnResponse(int64_t due_ns, int64_t recv_ns, bool correct);
  void SampleBacklog(int64_t now_ns, size_t due_unanswered);
  void MarkAborted() { aborted_ = true; }

  /// `step_start_ns`/`step_end_ns` bound the sending window; the SLO
  /// holds when p99 latency is at most `slo_p99_us`, every request was
  /// answered correctly, the step ran to the end and the backlog did not
  /// grow.
  StepSummary Summarize(int64_t step_start_ns, int64_t step_end_ns,
                        double slo_p99_us);

 private:
  double rate_;
  uint64_t sent_ = 0;
  uint64_t answered_ = 0;
  uint64_t failed_ = 0;
  bool aborted_ = false;
  std::vector<double> latency_us_;
  std::vector<double> gen_lag_us_;
  std::vector<std::pair<int64_t, size_t>> backlog_;
};

/// True when the mean backlog over the last quarter of [start, end) is
/// more than twice the mean over the first quarter plus `floor` requests
/// (a steady queue of a few requests is not growth).
bool BacklogGrowing(const std::vector<std::pair<int64_t, size_t>>& samples,
                    int64_t start_ns, int64_t end_ns, double floor);

}  // namespace perfbench

#endif  // PERFBENCH_OPENLOOP_H_
