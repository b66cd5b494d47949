#include "openloop.h"

#include <algorithm>

#include "stats.h"

namespace perfbench {

int64_t OpenLoopSchedule::DueNs(uint64_t i) const {
  return start_ns_ +
         static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate_);
}

void StepRecorder::OnSend(int64_t due_ns, int64_t sent_ns) {
  ++sent_;
  gen_lag_us_.push_back(1e-3 * static_cast<double>(sent_ns - due_ns));
}

void StepRecorder::OnResponse(int64_t due_ns, int64_t recv_ns, bool correct) {
  ++answered_;
  if (!correct) ++failed_;
  latency_us_.push_back(1e-3 * static_cast<double>(recv_ns - due_ns));
}

void StepRecorder::SampleBacklog(int64_t now_ns, size_t due_unanswered) {
  backlog_.emplace_back(now_ns, due_unanswered);
}

StepSummary StepRecorder::Summarize(int64_t step_start_ns,
                                    int64_t step_end_ns, double slo_p99_us) {
  StepSummary s;
  s.rate = rate_;
  s.sent = sent_;
  s.answered = answered_;
  s.failed = failed_ + (sent_ - std::min(sent_, answered_));
  s.aborted = aborted_;
  s.latency_samples = latency_us_.size();
  s.p50_us = NearestRankPercentile(latency_us_, 50);
  s.p99_us = NearestRankPercentile(latency_us_, 99);
  s.gen_lag_p99_us = NearestRankPercentile(gen_lag_us_, 99);
  for (const auto& [t, n] : backlog_) s.backlog_max = std::max(s.backlog_max, n);
  // A millisecond's worth of arrivals is queueing, not growth.
  s.backlog_growing = BacklogGrowing(backlog_, step_start_ns, step_end_ns,
                                     std::max(16.0, rate_ * 1e-3));
  s.meets_slo = !s.aborted && s.failed == 0 && !s.backlog_growing &&
                s.p99_us.has_value() && *s.p99_us <= slo_p99_us;
  return s;
}

bool BacklogGrowing(const std::vector<std::pair<int64_t, size_t>>& samples,
                    int64_t start_ns, int64_t end_ns, double floor) {
  const int64_t quarter = (end_ns - start_ns) / 4;
  double first = 0.0, last = 0.0;
  size_t nfirst = 0, nlast = 0;
  for (const auto& [t, n] : samples) {
    if (t >= start_ns && t < start_ns + quarter) {
      first += static_cast<double>(n);
      ++nfirst;
    } else if (t >= end_ns - quarter && t < end_ns) {
      last += static_cast<double>(n);
      ++nlast;
    }
  }
  if (nfirst == 0 || nlast == 0) return false;
  return last / static_cast<double>(nlast) >
         2.0 * first / static_cast<double>(nfirst) + floor;
}

}  // namespace perfbench
