// Ablation: how the rpart-style pre-pruning knobs interact with FK
// overfitting (a design choice DESIGN.md calls out).
//
// At a healthy tuple ratio the tree can afford to memorise FK; at ratio
// ~2 the FK column invites pure overfitting and pruning has to contain
// it. This sweep shows holdout error and tree size for NoJoin as a
// function of cp and minsplit at two tuple ratios, quantifying how much
// of the "trees are robust to avoiding joins" result depends on the
// pruning configuration (answer: little at healthy ratios, a lot at
// pathological ones).

#include <cstdio>

#include "bench_util.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "hamlet/synth/onexr.h"

namespace {

using namespace hamlet;

void Sweep(size_t nr) {
  synth::OneXrConfig cfg;
  cfg.ns = 1000;
  cfg.nr = nr;
  cfg.seed = 515;
  StarSchema star = synth::GenerateOneXr(cfg);
  Result<core::PreparedData> prepared = core::Prepare(star, 516);
  if (!prepared.ok()) {
    std::printf("prepare(nR=%zu) failed: %s\n", nr,
                prepared.status().ToString().c_str());
    bench::ReportFailure();
    return;
  }
  const core::PreparedData& p = prepared.value();
  SplitViews views = MakeSplitViews(
      p.data, p.split,
      core::SelectVariant(p.data, core::FeatureVariant::kNoJoin));

  std::printf("--- nR = %zu (train tuple ratio %.1f) ---\n", nr,
              0.5 * static_cast<double>(cfg.ns) / static_cast<double>(nr));
  std::printf("%-10s %-10s %-12s %-12s %-10s\n", "cp", "minsplit",
              "test-error", "train-error", "nodes");
  for (double cp : {0.0, 1e-4, 1e-3, 0.01, 0.1}) {
    for (size_t minsplit : {size_t{1}, size_t{10}, size_t{100}}) {
      ml::DecisionTree tree({.minsplit = minsplit, .cp = cp});
      if (!tree.Fit(views.train).ok()) {
        bench::ReportFailure();
        continue;
      }
      std::printf("%-10g %-10zu %-12.4f %-12.4f %-10zu\n", cp, minsplit,
                  ml::ErrorRate(tree, views.test),
                  ml::ErrorRate(tree, views.train), tree.num_nodes());
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation: pre-pruning (cp, minsplit) vs FK overfitting, NoJoin");
  Sweep(40);    // tuple ratio ~12.5: safe regime
  Sweep(250);   // tuple ratio ~2: the regime where avoiding joins hurts
  std::printf(
      "Expected: at nR=40 every configuration lands near the Bayes error\n"
      "(0.1) — the robustness result does not hinge on tuning. At nR=250\n"
      "unpruned trees overfit FK (train error ~0, test error high); cp\n"
      ">= 0.01 or minsplit >= 100 recovers part of the gap.\n");
  return bench::ExitCode();
}
