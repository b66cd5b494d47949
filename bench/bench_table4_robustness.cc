// Table 4: robustness study — discard dimension tables one at a time
// (NoR_i keeps FK_i but drops X_Ri) with a gini decision tree, plus the
// pairwise combinations for Flights (q = 3).
//
// Paper claim to check: only Yelp's users table (tuple ratio 2.5) hurts
// when dropped; every other dimension (13 of 14) is safe to discard.

#include <cstdio>

#include "bench_util.h"
#include "hamlet/synth/realworld.h"

int main() {
  using namespace hamlet;
  using core::FeatureVariant;
  using core::ModelKind;
  bench::PrintHeader("Table 4: drop-one-dimension robustness (dt-gini)");

  const core::Effort effort = core::EffortFromEnv();
  for (const auto& spec :
       bench::BenchSpecs()) {
    StarSchema star = synth::GenerateRealWorld(spec);
    Result<core::PreparedData> prepared = core::Prepare(
        star, spec.seed + 991, synth::RealWorldJoinOptions(spec));
    if (!prepared.ok()) {
      std::printf("%-10s prepare failed: %s\n", spec.name.c_str(),
                  prepared.status().ToString().c_str());
      bench::ReportFailure();
      continue;
    }
    const core::PreparedData& p = prepared.value();

    std::printf("%-10s", spec.name.c_str());
    // JoinAll and NoJoin anchors.
    for (auto variant : {FeatureVariant::kJoinAll, FeatureVariant::kNoJoin}) {
      Result<core::VariantResult> r =
          core::RunVariant(p, ModelKind::kTreeGini, variant, effort);
      std::printf("  %s=%.4f", core::FeatureVariantName(variant),
                  bench::TestAccuracyOrFail(r));
    }
    // NoR_i: drop one dimension's foreign features at a time.
    for (size_t i = 0; i < spec.dims.size(); ++i) {
      Result<core::VariantResult> r = core::RunOnFeatures(
          p, ModelKind::kTreeGini,
          core::SelectDroppingDimensions(p.data, {static_cast<int>(i)}),
          "NoR" + std::to_string(i + 1), effort);
      std::printf("  NoR%zu(%s)=%.4f", i + 1, spec.dims[i].name.c_str(),
                  bench::TestAccuracyOrFail(r));
    }
    // Pairwise drops for q = 3 (Flights).
    if (spec.dims.size() == 3) {
      std::printf("\n%-10s", "");
      const int pairs[3][2] = {{0, 1}, {0, 2}, {1, 2}};
      for (const auto& pr : pairs) {
        Result<core::VariantResult> r = core::RunOnFeatures(
            p, ModelKind::kTreeGini,
            core::SelectDroppingDimensions(p.data, {pr[0], pr[1]}),
            "NoR-pair", effort);
        std::printf("  NoR%d,%d=%.4f", pr[0] + 1, pr[1] + 1,
                    bench::TestAccuracyOrFail(r));
      }
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  std::printf(
      "\nExpected shape (paper Table 4): every NoR_i matches JoinAll within\n"
      "~0.01 except Yelp's NoR2 (users, tuple ratio 2.5), which drops.\n");
  return bench::ExitCode();
}
