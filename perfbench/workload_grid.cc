// grid-highcap: Table 3's six learner kinds x {JoinAll, NoJoin} on a
// fixed subset of the real-world simulators, quick grids, every cell
// through ml::GridSearch. The subset keeps Yelp, the one join the paper
// finds unsafe to avoid. This is the only workload that fits the MLP and
// exercises GridSearch's serial refit of the winning point.
//
// Scale and subset are chosen so one result set keeps the time profile of
// the whole quick-mode Table 3 (all seven datasets at scale 0.5, ~70 s)
// in a fifth of its time. On a 4-vCPU Xeon host, traced, both spend
// about 77% of their fit time in the SVMs, 21% in the MLP and under 1% in
// NB and logistic regression, at a grid parallel efficiency of 0.37-0.39.
// Flights carries that SVM share: without it every subset is
// MLP-heavier, and at scale 0.1 the MLP took 68% of the fit time.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "hamlet/common/rng.h"
#include "hamlet/core/experiment.h"
#include "hamlet/core/variants.h"
#include "hamlet/data/split.h"
#include "hamlet/ml/metrics.h"
#include "hamlet/synth/realworld.h"
#include "oracle.h"
#include "trace.h"
#include "traced_classifier.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hamlet::core::FeatureVariant;
using hamlet::core::ModelKind;

constexpr double kScale = 0.2;  // ~1200 labeled fact rows per dataset
const char* const kDatasets[] = {"Yelp", "Movies", "Flights"};

struct Kind {
  ModelKind kind;
  LayerSpans spans;
};
const Kind kKinds[] = {
    {ModelKind::kSvmLinear, {"ml.svm.fit", "ml.svm.predict"}},
    {ModelKind::kSvmPoly, {"ml.svm.fit", "ml.svm.predict"}},
    {ModelKind::kSvmRbf, {"ml.svm.fit", "ml.svm.predict"}},
    {ModelKind::kAnnMlp, {"ml.ann.fit", "ml.ann.predict"}},
    {ModelKind::kNaiveBayesBackward, {"ml.nb.fit", "ml.nb.predict"}},
    {ModelKind::kLogRegL1, {"ml.logreg.fit", "ml.logreg.predict"}},
};
const FeatureVariant kVariants[] = {FeatureVariant::kJoinAll,
                                    FeatureVariant::kNoJoin};

struct Prepared {
  std::string name;
  hamlet::core::PreparedData data;
};

std::string FormatParams(const hamlet::ml::ParamMap& params) {
  std::string out;
  for (const auto& [key, value] : params) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%s=%g", out.empty() ? "" : ",",
                  key.c_str(), value);
    out += buf;
  }
  return out.empty() ? "-" : out;
}

/// Generates and joins the fixed simulator draws.
std::vector<Prepared> BuildDatasets(WorkloadResult& result) {
  std::vector<Prepared> datasets;
  for (const char* name : kDatasets) {
    hamlet::Result<hamlet::synth::RealWorldSpec> spec =
        hamlet::synth::RealWorldSpecByName(name, kScale);
    if (!spec.ok()) {
      result.Fail(1, std::string("spec ") + name + ": " +
                         spec.status().ToString());
      continue;
    }
    const hamlet::synth::RealWorldSpec& s = spec.value();
    hamlet::StarSchema star;
    {
      ScopedSpan span("synth.generate");
      span.set_rows(s.ns);
      star = hamlet::synth::GenerateRealWorld(s);
    }
    ScopedSpan span("relational.prepare");
    hamlet::Result<hamlet::core::PreparedData> prepared =
        hamlet::core::Prepare(star, s.seed + 991,
                              hamlet::synth::RealWorldJoinOptions(s));
    if (!prepared.ok()) {
      result.Fail(1, std::string("prepare ") + name + ": " +
                         prepared.status().ToString());
      continue;
    }
    span.set_rows(prepared.value().data.num_rows());
    datasets.push_back({name, std::move(prepared).value()});
  }
  return datasets;
}

/// Grid-searches one cell and returns its table row. With `check_rows`
/// it also checks the winner's PredictAll against per-row Predict.
std::pair<std::string, std::string> RunCell(const Prepared& ds,
                                            const Kind& kind,
                                            FeatureVariant variant,
                                            bool check_rows,
                                            WorkloadResult& result) {
  ScopedStage stage("cell");
  const std::string key = ds.name + " " +
                          hamlet::core::ModelKindName(kind.kind) + " " +
                          hamlet::core::FeatureVariantName(variant);
  const std::vector<uint32_t> features =
      hamlet::core::SelectVariant(ds.data.data, variant);
  const hamlet::SplitViews views =
      hamlet::MakeSplitViews(ds.data.data, ds.data.split, features);
  const hamlet::ml::ParamGrid grid =
      hamlet::core::GridFor(kind.kind, hamlet::core::Effort::kQuick);
  hamlet::Result<hamlet::ml::GridSearchResult> search =
      hamlet::Status::Internal("not run");
  {
    ScopedSpan span("ml.grid.search", /*ambient=*/true);
    span.set_rows(grid.Enumerate().size());
    search = hamlet::ml::GridSearch(
        TracedFactory(hamlet::core::FactoryFor(kind.kind, ds.data, features,
                                               hamlet::core::Effort::kQuick),
                      kind.spans),
        grid, views.train, views.val);
  }
  if (!search.ok() || search.value().best_model == nullptr) {
    result.Fail(1, key + ": grid search failed: " + search.status().ToString());
    return {key, "ERR"};
  }
  const hamlet::ml::Classifier& model = *search.value().best_model;
  const double test = hamlet::ml::Accuracy(model, views.test);
  const double train = hamlet::ml::Accuracy(model, views.train);
  if (check_rows) {
    const size_t wrong = PredictAllMismatches(model, views.test);
    if (wrong > 0) {
      result.Fail(1, key + ": PredictAll disagrees with Predict on " +
                         std::to_string(wrong) + " rows");
    }
  }
  char value[160];
  std::snprintf(value, sizeof(value), "test=%.6f train=%.6f val=%.6f params=%s",
                test, train, search.value().best_val_accuracy,
                FormatParams(search.value().best_params).c_str());
  return {key, value};
}

}  // namespace

WorkloadResult RunGridHighcap(const Options& opts) {
  WorkloadResult result;
  std::vector<Prepared> datasets;
  TimedSetups(opts, result, [&] { datasets = BuildDatasets(result); });

  // The data are Table 3's fixed simulator draws, so every seed must
  // reproduce the reference table; the seed only shuffles the order the
  // cells run in. Redrawing the data (or just the split) per seed swings
  // the SVMs' SMO iterations by up to 20x, which would make run_s measure
  // the seed instead of the code.
  struct Cell {
    const Prepared* ds;
    const Kind* kind;
    FeatureVariant variant;
  };
  std::vector<Cell> cells;
  for (const Prepared& ds : datasets) {
    for (const Kind& kind : kKinds) {
      for (FeatureVariant variant : kVariants) {
        cells.push_back({&ds, &kind, variant});
      }
    }
  }
  hamlet::Rng(opts.seed).Shuffle(cells);

  const std::string reference = ReadReference(opts);
  ResultTable first_table;

  WorkloadResult probes;  // set-up failures are already counted once
  TimedReps(opts, opts.seconds, 2, result, [&] { (void)BuildDatasets(probes); },
            [&](size_t rep) {
              ResultTable table;
              for (const Cell& cell : cells) {
                ++result.attempted;
                table.push_back(RunCell(*cell.ds, *cell.kind, cell.variant,
                                        /*check_rows=*/rep == 0, result));
              }
              CheckTable(opts, /*reference_applies=*/true, rep, table,
                         first_table, reference, result);
            });
  return result;
}

}  // namespace perfbench
