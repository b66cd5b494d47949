// Quickstart: the hamlet pipeline in ~60 lines.
//
// Builds a tiny two-table star schema, asks the JoinSafetyAdvisor whether
// the dimension join can be avoided, then verifies the advice empirically
// by training a decision tree with JoinAll vs NoJoin features.
//
// Run: ./example_quickstart

#include <chrono>
#include <cstdio>

#include "hamlet/core/advisor.h"
#include "hamlet/core/experiment.h"
#include "hamlet/core/variants.h"
#include "hamlet/synth/onexr.h"

int main() {
  using namespace hamlet;

  // 1. Get a star schema. Here: the OneXr simulation (a lone foreign
  //    feature drives the label) with 2000 facts over 40 dimension rows —
  //    a healthy tuple ratio of 2000/40 = 50.
  synth::OneXrConfig cfg;
  cfg.ns = 2000;
  cfg.nr = 40;
  StarSchema star = synth::GenerateOneXr(cfg);

  // 2. Schema-only advice: no dimension bytes are read for this.
  std::printf("Join-safety advice for a decision tree:\n");
  const auto advice =
      core::AdviseJoins(star, core::ModelFamily::kDecisionTree);
  std::printf("%s\n", core::FormatAdvice(advice).c_str());

  // 3. Verify empirically: join once, train on JoinAll vs NoJoin.
  Result<core::PreparedData> prepared = core::Prepare(star, /*seed=*/7);
  if (!prepared.ok()) {
    std::printf("prepare failed: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  for (auto variant :
       {core::FeatureVariant::kJoinAll, core::FeatureVariant::kNoJoin}) {
    const auto start = std::chrono::steady_clock::now();
    Result<core::VariantResult> r =
        core::RunVariant(prepared.value(), core::ModelKind::kTreeGini,
                         variant, core::Effort::kQuick);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (!r.ok()) {
      std::printf("run failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%-8s holdout accuracy = %.4f  (train %.4f, %.2fs)\n",
                r.value().variant_name.c_str(), r.value().test_accuracy,
                r.value().train_accuracy, elapsed.count());
  }
  std::printf(
      "\nNoJoin skipped the dimension table entirely and should match\n"
      "JoinAll within ~0.01 — the paper's \"avoid the join safely\".\n");
  return 0;
}
