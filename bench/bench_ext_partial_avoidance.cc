// Extension (paper §5.2): the partial-avoidance trade-off curve.
//
// The paper observes that FD axioms allow avoiding *subsets* of foreign
// features, opening a space between NoJoin (k = 0) and JoinAll (k = d_R).
// This bench sweeps k (top-k foreign features per dimension by mutual
// information with the target, estimated on the training split) on the
// Yelp simulator — the one dataset where full avoidance costs accuracy —
// and on LastFM, where it costs nothing. Expectation: Yelp climbs from
// the NoJoin level toward the NoFK/JoinAll level within a few features;
// LastFM stays flat, so k = 0 is optimal there.

#include <cstdio>

#include "bench_util.h"
#include "hamlet/core/partial_avoidance.h"
#include "hamlet/ml/nb/naive_bayes.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "hamlet/synth/realworld.h"

namespace {

using namespace hamlet;

void Sweep(const char* dataset) {
  auto spec = synth::RealWorldSpecByName(dataset, bench::DataScale());
  if (!spec.ok()) {
    std::printf("--- %s --- spec failed: %s\n", dataset,
                spec.status().ToString().c_str());
    bench::ReportFailure();
    return;
  }
  StarSchema star = synth::GenerateRealWorld(spec.value());
  Result<core::PreparedData> prepared = core::Prepare(
      star, 2024, synth::RealWorldJoinOptions(spec.value()));
  if (!prepared.ok()) {
    std::printf("--- %s --- prepare failed: %s\n", dataset,
                prepared.status().ToString().c_str());
    bench::ReportFailure();
    return;
  }
  const core::PreparedData& p = prepared.value();
  DataView full_train(&p.data, p.split.train, [&] {
    std::vector<uint32_t> all(p.data.num_features());
    for (uint32_t c = 0; c < all.size(); ++c) all[c] = c;
    return all;
  }());

  // Two model families: Naive Bayes weighs evidence from every kept
  // feature, so its curve exposes the trade-off; the greedy tree mostly
  // sticks to FK splits whatever is added — the contrast is the point.
  std::printf("--- %s ---\n", dataset);
  std::printf("%-22s %-10s %-12s %-12s\n", "k (foreign feats/dim)",
              "features", "nb-accuracy", "dt-accuracy");
  for (size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{4}, size_t{8},
                   size_t{32}}) {
    const auto cols = core::SelectPartialAvoidance(p.data, full_train, k);
    SplitViews views = MakeSplitViews(p.data, p.split, cols);
    ml::NaiveBayes nb;
    ml::DecisionTree tree({.minsplit = 10, .cp = 0.001});
    if (!nb.Fit(views.train).ok() || !tree.Fit(views.train).ok()) {
      bench::ReportFailure();
      continue;
    }
    std::printf("%-22zu %-10zu %-12.4f %-12.4f\n", k, cols.size(),
                ml::Accuracy(nb, views.test), ml::Accuracy(tree, views.test));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Extension: partial join avoidance (top-k foreign features by MI)");
  Sweep("Yelp");
  Sweep("LastFM");
  std::printf(
      "Expected: on Yelp (tuple ratio 2.5 on users) accuracy rises with k\n"
      "— a few foreign features close most of the NoJoin gap; on LastFM\n"
      "(per-RID signal) the curve is flat and k = 0 suffices.\n");
  return bench::ExitCode();
}
