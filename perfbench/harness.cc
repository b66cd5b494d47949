#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

void WorkloadResult::Fail(uint64_t n, const std::string& note) {
  failed += n;
  if (!note.empty() && notes.size() < 20) notes.push_back(note);
}

namespace {

double SecondsSince(int64_t t0_ns) {
  return 1e-9 * static_cast<double>(NowNs() - t0_ns);
}

/// Peak resident set of the process so far, in MiB.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

void TimedSetups(const Options& opts, WorkloadResult& result,
                 const std::function<void()>& setup) {
  EnableTracing(opts.trace);
  for (size_t i = 0; i < kInitialSetups; ++i) {
    const int64_t t0 = NowNs();
    {
      ScopedStage stage("setup");
      setup();
    }
    result.setup_s.push_back(SecondsSince(t0));
  }
  if (opts.trace) result.traced_setups = kInitialSetups;
  EnableTracing(false);
}

void TimedReps(const Options& opts, double seconds, size_t min_reps,
               WorkloadResult& result, const std::function<void()>& probe,
               const std::function<void(size_t)>& rep) {
  // Warm-up, untimed: repetition 0 runs the slow output checks, and more
  // follow until kWarmupSeconds have passed. A shared host can take over
  // a second to give a process that was idle all of its cores back (four
  // spinning threads ran 4x slow for their first second on a 4-vCPU VM).
  const int64_t start = NowNs();
  size_t i = 0;
  do {
    rep(i++);
  } while (SecondsSince(start) < kWarmupSeconds);

  double last_rep_s = 0.0;
  for (size_t timed = 0;; ++timed, ++i) {
    // Stop once another repetition would overrun the run's seconds.
    if (timed >= min_reps && SecondsSince(start) + last_rep_s > seconds) break;
    const bool traced = opts.trace && timed % 2 == 1;
    EnableTracing(traced);
    const int64_t t0 = NowNs();
    const double c0 = ProcessCpuSeconds();
    {
      std::optional<ScopedStage> stage;
      if (traced) stage.emplace("rep");
      rep(i);
    }
    const double wall = SecondsSince(t0);
    const double cpu = ProcessCpuSeconds() - c0;
    EnableTracing(false);
    last_rep_s = wall;
    if (traced) {
      result.traced_run_s.push_back(wall);
      ++result.traced_reps;
    } else {
      result.run_s.push_back(wall);
      result.cpu_s.push_back(cpu);
    }
    // Set-up samples spread over the whole run, so one slow stretch of a
    // shared host cannot decide setup_s. The first, untimed probe refills
    // the caches the repetition evicted.
    probe();
    const int64_t probe_start = NowNs();
    for (size_t k = 0; k < kProbeMinSetups || SecondsSince(probe_start) < kProbeSeconds;
         ++k) {
      const int64_t t1 = NowNs();
      probe();
      result.setup_s.push_back(SecondsSince(t1));
    }
  }
  result.peak_rss_mb = PeakRssMb();
}

std::string ReadReference(const Options& opts) {
  std::ifstream in(opts.reference_dir + "/" + opts.workload + ".tsv");
  if (!in) return "";
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void CheckTable(const Options& opts, bool reference_applies, size_t rep,
                const ResultTable& table, ResultTable& first,
                const std::string& reference, WorkloadResult& result) {
  std::vector<std::string> notes;
  if (rep > 0) {
    const size_t bad = CountTableMismatches(table, first, &notes);
    if (bad > 0) {
      result.Fail(bad, "rep " + std::to_string(rep) +
                           " differs from rep 0: " + notes.front());
    }
    return;
  }
  first = table;
  if (!reference_applies) return;
  if (opts.write_reference) {
    ResultTable sorted = table;
    std::sort(sorted.begin(), sorted.end());
    std::ofstream out(opts.reference_dir + "/" + opts.workload + ".tsv");
    out << FormatTable(sorted);
    if (!out.flush()) result.Fail(1, "cannot write the reference table");
    return;
  }
  const size_t bad = CountTableMismatches(table, ParseTable(reference), &notes);
  result.Fail(bad, "");
  for (const std::string& note : notes) result.Fail(0, "reference: " + note);
}

}  // namespace perfbench
