// The three benchmark workloads and the repetition harness they share.
//
// Each workload sets up, then repeats its unit of work, a "result set",
// until the run's seconds are spent, timing the wall and process CPU of
// every repetition; between repetitions it sets up again into throwaway
// state, so setup_s is a median over samples from the whole run. Under
// --trace 1 the repetitions alternate untraced / traced, so the traced
// and untraced medians come from the same run and their difference is
// the tracing overhead.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "oracle.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding <workload>.tsv reference tables.
  std::string reference_dir;
  /// Write the reference instead of checking against it.
  bool write_reference = false;
};

/// The seed whose outputs the committed references record (for
/// workloads whose outputs depend on the seed).
inline constexpr uint64_t kReferenceSeed = 1;

/// A workload-specific figure (the serving workload's rates and
/// latencies), printed with the run and emitted as a per-layer metric
/// (main.cc holds their units).
struct Figure {
  std::string name;
  double value = 0.0;
  /// Sample count behind a percentile; 0 when not a percentile.
  size_t samples = 0;
  /// False when the figure could not be measured (too few samples).
  bool measured = true;
};

struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;  ///< first few oracle failures
  std::vector<double> setup_s;
  std::vector<double> run_s;  ///< untraced repetitions
  std::vector<double> cpu_s;
  std::vector<double> traced_run_s;
  /// Peak resident set after set-up and the timed repetitions (before
  /// any later phase, such as the serving ladder, can grow it).
  double peak_rss_mb = 0.0;
  size_t traced_setups = 0;
  size_t traced_reps = 0;
  std::vector<Figure> figures;
  std::vector<std::string> details;  ///< extra human-readable lines

  void Fail(uint64_t n, const std::string& note);
};

/// Runs `setup` kInitialSetups times, recording each wall time; under
/// tracing each run is a "setup" stage. The state `setup` leaves behind
/// is what the repetitions use.
inline constexpr size_t kInitialSetups = 7;
void TimedSetups(const Options& opts, WorkloadResult& result,
                 const std::function<void()>& setup);

/// Repeats `rep(i)` until `seconds` are spent. Untimed warm-up
/// repetitions run first, for at least kWarmupSeconds; repetition 0 is
/// one of them, so workloads run their slow output checks there. At
/// least `min_reps` timed repetitions follow. After every timed one
/// `probe` (a set-up into throwaway state) runs once untimed, then at
/// least kProbeMinSetups times and for kProbeSeconds, each run adding a
/// setup_s sample.
inline constexpr double kWarmupSeconds = 2.0;
inline constexpr size_t kProbeMinSetups = 3;
inline constexpr double kProbeSeconds = 0.05;
void TimedReps(const Options& opts, double seconds, size_t min_reps,
               WorkloadResult& result, const std::function<void()>& probe,
               const std::function<void(size_t)>& rep);

/// Reads `<dir>/<workload>.tsv`; empty when absent.
std::string ReadReference(const Options& opts);

/// The experiment workloads' output oracle. When `reference_applies`
/// (the run's inputs are those the reference was recorded from),
/// repetition 0's table must equal `reference`, or is written as the new
/// reference under --write-reference. Every later repetition must equal
/// repetition 0's table, which is kept in `first`. Each mismatching row
/// counts as one failure.
void CheckTable(const Options& opts, bool reference_applies, size_t rep,
                const ResultTable& table, ResultTable& first,
                const std::string& reference, WorkloadResult& result);

WorkloadResult RunGridHighcap(const Options& opts);
WorkloadResult RunMcReponexr(const Options& opts);
WorkloadResult RunServeSocket(const Options& opts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
