// Figure 1: end-to-end cost (training incl. grid search + testing),
// JoinAll vs NoJoin, for six model families on the seven datasets.
//
// The paper reports wall time; this bench prints the deterministic work
// behind it, one row per (model, dataset, variant) cell: the feature
// count, the grid points searched, the SVM fits, SMO iterations and
// kernel-cache misses, and the packed words read by match counting
// (1-NN and the SVMs). Each cell's counters are the deltas of one
// bench::CounterScope around its core::RunVariant; timings come from
// perfbench/. The paper's claim to check is relative: NoJoin is cheaper
// than JoinAll (roughly 2x for the high-capacity models, much more for
// Naive Bayes with backward selection, whose wrapper cost is quadratic
// in the number of features).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "hamlet/synth/realworld.h"

int main() {
  using namespace hamlet;
  using core::ModelKind;
  using counters::Counter;
  const bench::CounterScope totals;
  bench::PrintHeader(
      "Figure 1: end-to-end work, JoinAll vs NoJoin (expect NoJoin "
      "cheaper)");
  std::vector<ModelKind> models = {
      ModelKind::kTreeGini, ModelKind::kOneNn,
      ModelKind::kSvmRbf, ModelKind::kAnnMlp,
      ModelKind::kNaiveBayesBackward, ModelKind::kLogRegL1};
  // The paper's dataset-letter order: W E F Y M L B.
  std::vector<std::string> datasets = {
      "Walmart", "Expedia", "Flights", "Yelp", "Movies", "LastFM", "Books"};
  if (bench::IsSmokeMode()) {
    // Smoke: a tree, 1-NN, the RBF-SVM and NB backward selection on two
    // datasets, so the golden pins per-cell SMO and packed work.
    models = {ModelKind::kTreeGini, ModelKind::kOneNn, ModelKind::kSvmRbf,
              ModelKind::kNaiveBayesBackward};
    datasets = {"Walmart", "Yelp"};
  }
  const core::Effort effort = core::EffortFromEnv();
  constexpr size_t kWidth = 12;
  bench::PrintRow({"model", "dataset", "variant", "features", "grid_points",
                   "svm_fits", "smo_iters", "cache_miss", "eval_words"},
                  kWidth);
  for (const std::string& name : datasets) {
    Result<synth::RealWorldSpec> spec =
        synth::RealWorldSpecByName(name, bench::DataScale());
    if (!spec.ok()) {
      std::printf("%s: %s\n", name.c_str(), spec.status().ToString().c_str());
      bench::ReportFailure();
      continue;
    }
    const StarSchema star = synth::GenerateRealWorld(spec.value());
    Result<core::PreparedData> prepared = core::Prepare(
        star, 4242, synth::RealWorldJoinOptions(spec.value()));
    if (!prepared.ok()) {
      std::printf("%s: prepare failed: %s\n", name.c_str(),
                  prepared.status().ToString().c_str());
      bench::ReportFailure();
      continue;
    }
    for (ModelKind kind : models) {
      for (auto variant : {core::FeatureVariant::kJoinAll,
                           core::FeatureVariant::kNoJoin}) {
        std::vector<std::string> row = {
            core::ModelKindName(kind), name,
            core::FeatureVariantName(variant),
            std::to_string(
                core::SelectVariant(prepared.value().data, variant).size()),
            std::to_string(core::GridFor(kind, effort).Enumerate().size())};
        const bench::CounterScope cell;
        Result<core::VariantResult> r =
            core::RunVariant(prepared.value(), kind, variant, effort);
        if (!r.ok()) {
          row.push_back("ERR");
          bench::ReportFailure();
        } else {
          const counters::Snapshot d = cell.Delta();
          for (Counter c : {Counter::kSmoFits, Counter::kSmoIterations,
                            Counter::kKernelCacheMisses,
                            Counter::kPackedEvalWords}) {
            row.push_back(std::to_string(d[c]));
          }
        }
        bench::PrintRow(row, kWidth);
      }
    }
  }
  std::printf(
      "\nExpected shape (paper Figure 1): NoJoin is cheaper end to end\n"
      "than JoinAll, about 2x for the high-capacity models and far more\n"
      "for NB backward selection. NoJoin drops the foreign features, so\n"
      "every cell has fewer features and fewer packed words per match\n"
      "count; a NoJoin cell with more SMO iterations or packed words than\n"
      "its JoinAll twin contradicts the figure.\n\n");
  bench::PrintSvmCacheStats(totals);
  bench::PrintPackedStats(totals);
  return bench::ExitCode();
}
