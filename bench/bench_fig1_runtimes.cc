// Figure 1: end-to-end runtimes (training incl. grid search + testing),
// JoinAll vs NoJoin, for six model families on the seven datasets.
//
// Uses google-benchmark for the wall-clock measurement. The paper's claim
// to check is relative: NoJoin is faster than JoinAll (roughly 2x for the
// high-capacity models, much more for Naive Bayes with backward selection,
// whose wrapper cost is quadratic in the number of features).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "bench_util.h"
#include "hamlet/synth/realworld.h"

namespace {

using namespace hamlet;

/// Prepared datasets are cached across benchmark repetitions.
const core::PreparedData& PreparedFor(const std::string& name) {
  static std::map<std::string, std::unique_ptr<core::PreparedData>> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    auto spec = synth::RealWorldSpecByName(name, bench::DataScale());
    StarSchema star = synth::GenerateRealWorld(spec.value());
    Result<core::PreparedData> prepared = core::Prepare(
        star, 4242, synth::RealWorldJoinOptions(spec.value()));
    it = cache
             .emplace(name, std::make_unique<core::PreparedData>(
                                std::move(prepared).value()))
             .first;
  }
  return *it->second;
}

void RunEndToEnd(benchmark::State& state, const std::string& dataset,
                 core::ModelKind kind, core::FeatureVariant variant) {
  const core::PreparedData& prepared = PreparedFor(dataset);
  for (auto _ : state) {
    Result<core::VariantResult> r =
        core::RunVariant(prepared, kind, variant, core::EffortFromEnv());
    if (!r.ok()) {
      // SkipWithError only annotates the report; flag the process too.
      bench::ReportFailure();
      state.SkipWithError(r.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(r);
  }
}

void RegisterAll() {
  std::vector<std::pair<std::string, core::ModelKind>> models = {
      {"dt_gini", core::ModelKind::kTreeGini},
      {"1nn", core::ModelKind::kOneNn},
      {"svm_rbf", core::ModelKind::kSvmRbf},
      {"ann", core::ModelKind::kAnnMlp},
      {"nb_bfs", core::ModelKind::kNaiveBayesBackward},
      {"logreg_l1", core::ModelKind::kLogRegL1},
  };
  // The paper's dataset-letter order: W E F Y M L B.
  std::vector<std::string> datasets = {
      "Walmart", "Expedia", "Flights", "Yelp", "Movies", "LastFM", "Books"};
  if (bench::IsSmokeMode()) {
    // Smoke: one cheap and one expensive family on two datasets, just to
    // keep the end-to-end path (generate -> prepare -> grid search) alive.
    models = {{"dt_gini", core::ModelKind::kTreeGini},
              {"nb_bfs", core::ModelKind::kNaiveBayesBackward}};
    datasets = {"Walmart", "Yelp"};
  }
  for (const auto& [mname, kind] : models) {
    for (const auto& ds : datasets) {
      for (auto variant : {core::FeatureVariant::kJoinAll,
                           core::FeatureVariant::kNoJoin}) {
        const std::string bench_name =
            "fig1/" + mname + "/" + ds + "/" +
            core::FeatureVariantName(variant);
        benchmark::RegisterBenchmark(
            bench_name.c_str(),
            [ds, kind, variant](benchmark::State& st) {
              RunEndToEnd(st, ds, kind, variant);
            })
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1)
            ->MeasureProcessCPUTime();
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const hamlet::bench::SvmStatsScope svm_stats;
  const hamlet::bench::PackedStatsScope packed_stats;
  bench::PrintHeader(
      "Figure 1: end-to-end runtimes, JoinAll vs NoJoin (expect NoJoin "
      "faster)");
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bench::PrintSvmCacheStats(svm_stats);
  bench::PrintPackedStats(packed_stats);
  return bench::ExitCode();
}
