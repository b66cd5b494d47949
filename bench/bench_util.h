// Shared helpers for the bench binaries: effort handling, table printing,
// and the Monte-Carlo sweep driver used by the figure benches.
//
// Every binary prints the corresponding paper table/figure series. Effort
// defaults to quick (HAMLET_BENCH_MODE=full for paper-fidelity grids and
// run counts); quick mode shrinks sizes so the whole bench suite finishes
// in minutes while preserving the qualitative shapes. A third level,
// HAMLET_BENCH_MODE=smoke, shrinks further (fewer runs, smaller data,
// fewer datasets) so ctest can exercise every binary in seconds — smoke
// output checks that the code paths run, not that the figures replicate.

#ifndef HAMLET_BENCH_BENCH_UTIL_H_
#define HAMLET_BENCH_BENCH_UTIL_H_

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "hamlet/common/counters.h"
#include "hamlet/core/experiment.h"
#include "hamlet/core/variants.h"
#include "hamlet/data/split.h"
#include "hamlet/ml/bias_variance.h"
#include "hamlet/ml/knn/one_nn.h"
#include "hamlet/ml/metrics.h"
#include "hamlet/ml/svm/svm.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "hamlet/simd/simd.h"
#include "hamlet/synth/realworld.h"

namespace hamlet {
namespace bench {

/// Bench effort level. Quick/full map onto core::Effort for grids; smoke
/// additionally shrinks run counts, data scale, and the dataset roster.
/// core::BenchModeFromEnv() is the single parser of HAMLET_BENCH_MODE.
using core::BenchMode;

inline const char* BenchModeName(BenchMode m) {
  switch (m) {
    case BenchMode::kSmoke:
      return "smoke";
    case BenchMode::kQuick:
      return "quick";
    case BenchMode::kFull:
      return "full";
  }
  return "?";
}

inline bool IsFullMode() {
  return core::BenchModeFromEnv() == BenchMode::kFull;
}
inline bool IsSmokeMode() {
  return core::BenchModeFromEnv() == BenchMode::kSmoke;
}

/// Process-wide failure flag. Bench binaries keep printing their tables
/// when individual cells fail (ERR / -1 entries), but any reported
/// failure makes ExitCode() nonzero so the ctest smoke entries catch a
/// bench whose runs all silently break. Atomic because Monte-Carlo run
/// callbacks report failures from pool worker threads.
inline std::atomic<int>& FailureCount() {
  static std::atomic<int> count{0};
  return count;
}
inline void ReportFailure() {
  FailureCount().fetch_add(1, std::memory_order_relaxed);
}
inline int ExitCode() { return FailureCount().load() == 0 ? 0 : 1; }

/// Test accuracy of `r`, or -1 with the failure flag set — keeps table
/// rows printing while making the binary exit nonzero at the end.
inline double TestAccuracyOrFail(const Result<core::VariantResult>& r) {
  if (!r.ok()) {
    ReportFailure();
    return -1.0;
  }
  return r.value().test_accuracy;
}

/// Monte-Carlo runs per point: the paper uses 100; quick mode uses 12.
inline size_t NumRuns() {
  switch (core::BenchModeFromEnv()) {
    case BenchMode::kSmoke:
      return 3;
    case BenchMode::kQuick:
      return 12;
    case BenchMode::kFull:
      return 100;
  }
  return 12;
}

/// Dataset scale for the real-world simulators (1.0 = ~6000 fact rows).
inline double DataScale() {
  switch (core::BenchModeFromEnv()) {
    case BenchMode::kSmoke:
      return 0.2;
    case BenchMode::kQuick:
      return 0.5;
    case BenchMode::kFull:
      return 1.0;
  }
  return 0.5;
}

/// The dataset roster for table benches: all seven simulated datasets in
/// quick/full mode, a two-dataset subset in smoke mode.
inline std::vector<synth::RealWorldSpec> BenchSpecs() {
  std::vector<synth::RealWorldSpec> specs =
      synth::AllRealWorldSpecs(DataScale());
  if (IsSmokeMode() && specs.size() > 2) specs.resize(2);
  return specs;
}

inline void PrintHeader(const std::string& title) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("mode: %s\n\n", BenchModeName(core::BenchModeFromEnv()));
}

/// Prints `cells` left-aligned in columns of `width` characters. A cell
/// too wide for its column is printed whole, pushing the rest of the row
/// right; every cell is followed by at least one space.
inline void PrintRow(const std::vector<std::string>& cells, size_t width) {
  for (const auto& cell : cells) {
    std::printf("%-*s ", static_cast<int>(width) - 1, cell.c_str());
  }
  std::printf("\n");
}

/// The work counted in the common/counters registry since construction.
/// The registry is monotone and never reset, so a bench that wants ITS
/// OWN numbers — not whatever earlier fits in the same process
/// accumulated — constructs one of these (at the start of main, or
/// around one cell) and reports Delta(); scopes nest.
class CounterScope {
 public:
  CounterScope() : start_(counters::Read()) {}
  counters::Snapshot Delta() const { return counters::Read() - start_; }

 private:
  counters::Snapshot start_;
};

/// Prints the SMO kernel-row cache and solver counters accumulated since
/// `scope` was constructed, in a stable, machine-parseable form. The
/// SVM-heavy benches (fig1, fig3, fig8, table3) call this after their
/// tables, so the goldens pin cache effectiveness and iteration counts
/// (fields in docs/ARCHITECTURE.md, "The bench counter lines"). Counters
/// cover every fit inside the scope (all grid cells, all Monte-Carlo
/// runs); hit_rate is n/a when no SVM fit ran.
inline void PrintSvmCacheStats(const CounterScope& scope) {
  using counters::Counter;
  const counters::Snapshot d = scope.Delta();
  const uint64_t hits = d[Counter::kKernelCacheHits];
  const uint64_t misses = d[Counter::kKernelCacheMisses];
  const uint64_t accesses = hits + misses;
  std::printf("[svm-cache] hits=%llu misses=%llu hit_rate=",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses));
  if (accesses == 0) {
    std::printf("n/a");
  } else {
    std::printf("%.4f",
                static_cast<double>(hits) / static_cast<double>(accesses));
  }
  std::printf(
      " fits=%llu iters=%llu shrinks=%llu unshrinks=%llu unconverged=%llu\n",
      static_cast<unsigned long long>(d[Counter::kSmoFits]),
      static_cast<unsigned long long>(d[Counter::kSmoIterations]),
      static_cast<unsigned long long>(d[Counter::kSmoShrinks]),
      static_cast<unsigned long long>(d[Counter::kSmoUnshrinks]),
      static_cast<unsigned long long>(d[Counter::kSmoUnconverged]));
}

/// Prints the packed-code layer's counters accumulated since `scope` was
/// constructed, in a stable, machine-parseable form. The match-counting
/// benches (1-NN and SVM families) call this after their tables, so the
/// goldens pin the packed work volume; the golden filter masks the
/// CPU-picked backend name. words_per_row is the mean packed row width
/// (build words / rows packed); n/a when nothing was packed inside the
/// scope.
inline void PrintPackedStats(const CounterScope& scope) {
  using counters::Counter;
  const counters::Snapshot d = scope.Delta();
  const uint64_t rows = d[Counter::kPackedRows];
  std::printf("[packed] backend=%s builds=%llu rows=%llu words_per_row=",
              simd::BackendName(simd::ActiveBackend()),
              static_cast<unsigned long long>(d[Counter::kPackedBuilds]),
              static_cast<unsigned long long>(rows));
  if (rows == 0) {
    std::printf("n/a");
  } else {
    std::printf("%.2f", static_cast<double>(d[Counter::kPackedBuildWords]) /
                            static_cast<double>(rows));
  }
  std::printf(" evals=%llu eval_words=%llu\n",
              static_cast<unsigned long long>(d[Counter::kPackedEvals]),
              static_cast<unsigned long long>(d[Counter::kPackedEvalWords]));
}

/// Which model a figure bench trains inside its Monte-Carlo loop.
enum class SimModel { kTreeGini, kOneNn, kSvmRbf };

/// Average holdout error and net variance of `model` on `variant`, over
/// NumRuns() freshly generated star schemas. `make_star(run)` samples one
/// dataset; a small validation grid tunes the SVM's gamma per run (quick
/// surrogate of the paper's full grid).
template <typename MakeStar>
ml::BiasVariance SimulateVariant(MakeStar&& make_star,
                                 core::FeatureVariant variant,
                                 SimModel model) {
  // Fixed test set from an independent draw: run index 10^6.
  StarSchema test_star = make_star(1000000);
  Result<core::PreparedData> test_prep = core::Prepare(test_star, 999);
  if (!test_prep.ok()) {
    std::printf("prepare(test) failed: %s\n",
                test_prep.status().ToString().c_str());
    ReportFailure();
    return {};
  }
  const core::PreparedData& tp = test_prep.value();
  const std::vector<uint32_t> features =
      core::SelectVariant(tp.data, variant);
  // Use all rows of the test draw's test split as the fixed holdout.
  DataView fixed_test(&tp.data, tp.split.test, features);
  std::vector<uint8_t> labels(fixed_test.num_rows());
  for (size_t i = 0; i < labels.size(); ++i) labels[i] = fixed_test.label(i);

  // The runs execute concurrently on the parallel pool via the
  // Monte-Carlo driver: every piece of per-run state (data seed, split
  // seed, models) derives from the run index r, so the callback is
  // thread-safe and the decomposition is bit-identical at any
  // HAMLET_THREADS. A failed run (prepare or fit) returns an empty
  // prediction vector, which the decomposition rejects as a size
  // mismatch below.
  auto run_one = [&](size_t r) -> std::vector<uint8_t> {
    StarSchema star = make_star(r);
    Result<core::PreparedData> prep = core::Prepare(star, 31 * r + 7);
    if (!prep.ok()) {
      std::printf("prepare(run %zu) failed: %s\n", r,
                  prep.status().ToString().c_str());
      ReportFailure();
      return {};
    }
    const core::PreparedData& p = prep.value();
    const std::vector<uint32_t> run_features =
        core::SelectVariant(p.data, variant);
    DataView train(&p.data, p.split.train, run_features);

    // NOTE: the fixed test set's feature ids must match the run's ids;
    // generators are deterministic in shape, so column layouts agree.
    std::vector<uint8_t> run_preds;
    switch (model) {
      case SimModel::kTreeGini: {
        ml::DecisionTree m({.minsplit = 10, .cp = 0.001});
        if (!m.Fit(train).ok()) {
          ReportFailure();
          return {};
        }
        run_preds = m.PredictAll(fixed_test);
        break;
      }
      case SimModel::kOneNn: {
        ml::OneNearestNeighbor m;
        if (!m.Fit(train).ok()) {
          ReportFailure();
          return {};
        }
        run_preds = m.PredictAll(fixed_test);
        break;
      }
      case SimModel::kSvmRbf: {
        // Gamma must track the feature-set width (the RBF exponent scale
        // is 2 x #mismatches, which grows with d), so tune it per run on
        // the run's own validation split, as the paper's grid search does.
        DataView val(&p.data, p.split.val, run_features);
        double best_acc = -1.0;
        for (double gamma : {0.05, 0.2, 1.0}) {
          ml::SvmConfig cfg;
          cfg.kernel.type = ml::KernelType::kRbf;
          cfg.kernel.gamma = gamma;
          cfg.C = 10.0;
          cfg.max_train_rows = 1500;
          ml::KernelSvm m(cfg);
          if (!m.Fit(train).ok()) {
            ReportFailure();
            return {};
          }
          const double acc = ml::Accuracy(m, val);
          if (acc > best_acc) {
            best_acc = acc;
            run_preds = m.PredictAll(fixed_test);
          }
        }
        break;
      }
    }
    return run_preds;
  };
  Result<ml::BiasVariance> bv =
      ml::MonteCarloBiasVariance(NumRuns(), run_one, labels, labels);
  if (!bv.ok()) {
    std::printf("decompose failed: %s\n", bv.status().ToString().c_str());
    ReportFailure();
    return {};
  }
  return bv.value();
}

/// Prints one figure panel: a `--- title ---` header, then for each x in
/// `xs` a row with the JoinAll / NoJoin / NoFK cells of SimulateVariant
/// over `make_star(x, run)` — mean error in 10-wide columns, or net
/// variance in 12-wide columns when `net_variance` is set (Figure 4).
template <typename MakeStar>
void RunSimulationPanel(const char* title, const char* x_name,
                        const std::vector<double>& xs, SimModel model,
                        MakeStar&& make_star, bool net_variance = false) {
  const int width = net_variance ? 12 : 10;
  std::printf("--- %s ---\n", title);
  std::printf("%-12s %-*s %-*s %-*s\n", x_name, width, "JoinAll", width,
              "NoJoin", width, "NoFK");
  for (double x : xs) {
    std::printf("%-12g", x);
    for (auto variant :
         {core::FeatureVariant::kJoinAll, core::FeatureVariant::kNoJoin,
          core::FeatureVariant::kNoFK}) {
      const ml::BiasVariance bv = SimulateVariant(
          [&](size_t run) { return make_star(x, run); }, variant, model);
      std::printf(" %-*.4f", width,
                  net_variance ? bv.net_variance : bv.mean_error);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace bench
}  // namespace hamlet

#endif  // HAMLET_BENCH_BENCH_UTIL_H_
