// mc-reponexr: Figure 7-9 style Monte-Carlo bias-variance runs on
// RepOneXr star schemas. Every run generates its own star, joins it
// through core::Prepare, and fits dt-gini, 1-NN and the RBF-SVM (small
// gamma grid, picked on the run's validation split) on JoinAll, NoJoin
// and NoFK, scoring a fixed test set; runs fan out on the parallel pool.
// Nearly all the work is SMO, the kernel cache and packed match
// counting: no MLP and no ml::GridSearch, so the refit and MLP paths are
// bypassed here while generate + join is paid once per run.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "hamlet/common/parallel.h"
#include "hamlet/core/experiment.h"
#include "hamlet/core/variants.h"
#include "hamlet/ml/bias_variance.h"
#include "hamlet/ml/knn/one_nn.h"
#include "hamlet/ml/metrics.h"
#include "hamlet/ml/svm/svm.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "hamlet/synth/reponexr.h"
#include "oracle.h"
#include "trace.h"
#include "traced_classifier.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hamlet::core::FeatureVariant;

constexpr size_t kRunsPerPanel = 32;
constexpr size_t kTestRun = 1000000;  // run index of the fixed test draw
// Tuple ratio ~25 (panel A) and ~5 (panel B) at the default n_S = 1000.
const size_t kPanelNr[] = {40, 200};
const FeatureVariant kVariants[] = {FeatureVariant::kJoinAll,
                                    FeatureVariant::kNoJoin,
                                    FeatureVariant::kNoFK};
const char* const kModels[] = {"dt-gini", "1nn", "svm-rbf"};
constexpr size_t kNumVariants = 3;
constexpr size_t kNumModels = 3;

hamlet::StarSchema MakeStar(uint64_t seed, size_t nr, size_t run) {
  hamlet::synth::RepOneXrConfig cfg;
  cfg.nr = nr;
  // The seed redraws every fact table; the dimension tables (and so the
  // true distribution) stay those of Figures 7-9.
  cfg.seed = 8181 + 131 * run + 1000003 * seed;
  ScopedSpan span("synth.generate");
  span.set_rows(cfg.ns);
  return hamlet::synth::GenerateRepOneXr(cfg);
}

hamlet::Result<hamlet::core::PreparedData> PrepareStar(
    const hamlet::StarSchema& star, uint64_t split_seed) {
  ScopedSpan span("relational.prepare");
  hamlet::Result<hamlet::core::PreparedData> prepared =
      hamlet::core::Prepare(star, split_seed);
  if (prepared.ok()) span.set_rows(prepared.value().data.num_rows());
  return prepared;
}

/// The fixed holdout of one panel: the test split of an independent draw.
struct TestSet {
  hamlet::core::PreparedData prepared;
  std::vector<hamlet::DataView> views;  // one per variant
  std::vector<uint8_t> labels;
};

/// One Monte-Carlo run's predictions, [variant][model], on the test set.
using RunPredictions = std::vector<std::vector<uint8_t>>;

RunPredictions RunOne(uint64_t seed, size_t nr, size_t run,
                      const TestSet& test) {
  RunPredictions out(kNumVariants * kNumModels);
  const hamlet::StarSchema star = MakeStar(seed, nr, run);
  hamlet::Result<hamlet::core::PreparedData> prep =
      PrepareStar(star, 31 * run + 7);
  if (!prep.ok()) return out;  // empty vectors: counted as failed runs
  const hamlet::core::PreparedData& p = prep.value();
  for (size_t v = 0; v < kNumVariants; ++v) {
    const std::vector<uint32_t> features =
        hamlet::core::SelectVariant(p.data, kVariants[v]);
    const hamlet::DataView train(&p.data, p.split.train, features);
    const hamlet::DataView val(&p.data, p.split.val, features);
    const hamlet::DataView& fixed_test = test.views[v];

    TracedClassifier tree(
        std::make_unique<hamlet::ml::DecisionTree>(
            hamlet::ml::DecisionTreeConfig{.minsplit = 10, .cp = 0.001}),
        {"ml.tree.fit", "ml.tree.predict"});
    if (tree.Fit(train).ok()) out[v * kNumModels + 0] = tree.PredictAll(fixed_test);

    TracedClassifier knn(std::make_unique<hamlet::ml::OneNearestNeighbor>(),
                         {"ml.knn.fit", "ml.knn.predict"});
    if (knn.Fit(train).ok()) out[v * kNumModels + 1] = knn.PredictAll(fixed_test);

    // Gamma tracks the feature-set width, so it is tuned per run on the
    // run's own validation split (as bench_fig8 does).
    double best_acc = -1.0;
    for (double gamma : {0.05, 0.2, 1.0}) {
      hamlet::ml::SvmConfig cfg;
      cfg.kernel.type = hamlet::ml::KernelType::kRbf;
      cfg.kernel.gamma = gamma;
      cfg.C = 10.0;
      cfg.max_train_rows = 1500;
      TracedClassifier svm(std::make_unique<hamlet::ml::KernelSvm>(cfg),
                           {"ml.svm.fit", "ml.svm.predict"});
      if (!svm.Fit(train).ok()) continue;
      const double acc = hamlet::ml::Accuracy(svm, val);
      if (acc > best_acc) {
        best_acc = acc;
        out[v * kNumModels + 2] = svm.PredictAll(fixed_test);
      }
    }
  }
  return out;
}

/// The fixed holdout of each panel. The views point into their own
/// TestSet, so the vector is sized once and returned by move.
std::vector<TestSet> BuildTests(uint64_t seed, WorkloadResult& result) {
  std::vector<TestSet> tests(std::size(kPanelNr));
  for (size_t panel = 0; panel < std::size(kPanelNr); ++panel) {
    const hamlet::StarSchema star = MakeStar(seed, kPanelNr[panel], kTestRun);
    hamlet::Result<hamlet::core::PreparedData> prep = PrepareStar(star, 999);
    if (!prep.ok()) {
      result.Fail(1, "prepare(test) failed: " + prep.status().ToString());
      return {};
    }
    TestSet& t = tests[panel];
    t.prepared = std::move(prep).value();
    for (FeatureVariant v : kVariants) {
      t.views.emplace_back(&t.prepared.data, t.prepared.split.test,
                           hamlet::core::SelectVariant(t.prepared.data, v));
    }
    const hamlet::DataView& any = t.views.front();
    for (size_t i = 0; i < any.num_rows(); ++i) {
      t.labels.push_back(any.label(i));
    }
  }
  return tests;
}

/// One error/bias/variance row per (panel, variant, model) series; a run
/// whose prediction vector is short counts as a failure.
ResultTable Decompose(const std::vector<RunPredictions>& runs,
                      const std::vector<TestSet>& tests,
                      WorkloadResult& result) {
  ResultTable table;
  for (size_t panel = 0; panel < std::size(kPanelNr); ++panel) {
    const std::vector<uint8_t>& labels = tests[panel].labels;
    const std::string prefix = "nr=" + std::to_string(kPanelNr[panel]) + " ";
    for (size_t r = 0; r < kRunsPerPanel; ++r) {
      for (const std::vector<uint8_t>& preds : runs[panel * kRunsPerPanel + r]) {
        if (preds.size() != labels.size()) {
          result.Fail(1, prefix + "run " + std::to_string(r) +
                             ": short prediction vector");
          break;
        }
      }
    }
    for (size_t v = 0; v < kNumVariants; ++v) {
      for (size_t m = 0; m < kNumModels; ++m) {
        std::vector<std::vector<uint8_t>> series;
        for (size_t r = 0; r < kRunsPerPanel; ++r) {
          series.push_back(runs[panel * kRunsPerPanel + r][v * kNumModels + m]);
        }
        const std::string key = prefix +
                                hamlet::core::FeatureVariantName(kVariants[v]) +
                                " " + kModels[m];
        hamlet::Result<hamlet::ml::BiasVariance> bv =
            hamlet::ml::DecomposePredictions(series, labels, labels);
        if (!bv.ok()) {
          table.emplace_back(key, "ERR");
          continue;
        }
        char value[160];
        std::snprintf(value, sizeof(value),
                      "err=%.6f bias=%.6f var=%.6f netvar=%.6f",
                      bv.value().mean_error, bv.value().bias,
                      bv.value().variance, bv.value().net_variance);
        table.emplace_back(key, value);
      }
    }
  }
  return table;
}

}  // namespace

WorkloadResult RunMcReponexr(const Options& opts) {
  WorkloadResult result;
  std::vector<TestSet> tests;
  TimedSetups(opts, result, [&] { tests = BuildTests(opts.seed, result); });
  if (tests.empty()) return result;

  const std::string reference = ReadReference(opts);
  ResultTable first_table;
  const size_t total_runs = std::size(kPanelNr) * kRunsPerPanel;

  WorkloadResult probes;  // set-up failures are already counted once
  TimedReps(opts, opts.seconds, 3, result,
            [&] { (void)BuildTests(opts.seed, probes); },
            [&](size_t rep) {
              result.attempted += total_runs;
              const std::vector<RunPredictions> runs =
                  hamlet::parallel::ParallelMap<RunPredictions>(
                      total_runs, [&](size_t i) {
                        const size_t panel = i / kRunsPerPanel;
                        return RunOne(opts.seed, kPanelNr[panel],
                                      i % kRunsPerPanel, tests[panel]);
                      });
              CheckTable(opts, opts.seed == kReferenceSeed, rep,
                         Decompose(runs, tests, result), first_table,
                         reference, result);
            });
  return result;
}

}  // namespace perfbench
