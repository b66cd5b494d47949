// Tests for hamlet/core/experiment: the end-to-end runner used by all
// benches (join -> split -> grid search -> variant comparison).

#include <gtest/gtest.h>

#include <cstdlib>

#include "hamlet/core/experiment.h"
#include "hamlet/synth/onexr.h"
#include "hamlet/synth/realworld.h"

namespace hamlet {
namespace core {
namespace {

PreparedData PrepareOneXr(size_t ns, size_t nr, uint64_t seed) {
  synth::OneXrConfig cfg;
  cfg.ns = ns;
  cfg.nr = nr;
  cfg.seed = seed;
  StarSchema star = synth::GenerateOneXr(cfg);
  Result<PreparedData> prepared = Prepare(star, seed + 1);
  EXPECT_TRUE(prepared.ok());
  return std::move(prepared).value();
}

TEST(ExperimentTest, PrepareJoinsAndSplits) {
  PreparedData prepared = PrepareOneXr(400, 20, 1);
  EXPECT_EQ(prepared.data.num_rows(), 400u);
  // 4 home + 1 fk + 4 foreign.
  EXPECT_EQ(prepared.data.num_features(), 9u);
  EXPECT_EQ(prepared.split.train.size(), 200u);
  EXPECT_EQ(prepared.split.val.size(), 100u);
  EXPECT_EQ(prepared.split.test.size(), 100u);
}

TEST(ExperimentTest, RunVariantProducesSaneAccuracies) {
  PreparedData prepared = PrepareOneXr(800, 20, 2);
  for (auto variant : {FeatureVariant::kJoinAll, FeatureVariant::kNoJoin,
                       FeatureVariant::kNoFK}) {
    Result<VariantResult> r = RunVariant(prepared, ModelKind::kTreeGini,
                                         variant, Effort::kQuick);
    ASSERT_TRUE(r.ok());
    // OneXr with p=0.1 is ~90% learnable; every variant with access to the
    // signal (directly or through FK) should beat 0.8 on holdout.
    EXPECT_GT(r.value().test_accuracy, 0.8)
        << FeatureVariantName(variant);
    EXPECT_GE(r.value().train_accuracy, r.value().test_accuracy - 0.1);
  }
}

TEST(ExperimentTest, NoJoinTracksJoinAllAtHealthyTupleRatio) {
  // The paper's core claim at the experiment-runner level: tuple ratio
  // 800/20 = 40 is far above the tree threshold, so |NoJoin - JoinAll|
  // should be small.
  PreparedData prepared = PrepareOneXr(800, 20, 3);
  Result<VariantResult> join_all = RunVariant(
      prepared, ModelKind::kTreeGini, FeatureVariant::kJoinAll,
      Effort::kQuick);
  Result<VariantResult> no_join = RunVariant(
      prepared, ModelKind::kTreeGini, FeatureVariant::kNoJoin,
      Effort::kQuick);
  ASSERT_TRUE(join_all.ok());
  ASSERT_TRUE(no_join.ok());
  EXPECT_NEAR(no_join.value().test_accuracy,
              join_all.value().test_accuracy, 0.05);
}

TEST(ExperimentTest, RunOnFeaturesHonoursSubset) {
  PreparedData prepared = PrepareOneXr(400, 20, 4);
  // Only the FK column: the tree can still learn (FK determines Xr).
  const std::vector<uint32_t> fk_only = ForeignKeyColumns(prepared.data);
  ASSERT_EQ(fk_only.size(), 1u);
  Result<VariantResult> r = RunOnFeatures(
      prepared, ModelKind::kTreeGini, fk_only, "fk-only", Effort::kQuick);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().variant_name, "fk-only");
  EXPECT_GT(r.value().test_accuracy, 0.75);
}

TEST(ExperimentTest, AllModelKindsRunOnTinyData) {
  // Smoke: every model kind must fit/predict through the runner. Tiny
  // sizes keep this fast; accuracy is not asserted beyond finiteness.
  PreparedData prepared = PrepareOneXr(200, 10, 5);
  for (auto kind :
       {ModelKind::kTreeGini, ModelKind::kTreeInfoGain,
        ModelKind::kTreeGainRatio, ModelKind::kOneNn, ModelKind::kSvmLinear,
        ModelKind::kSvmPoly, ModelKind::kSvmRbf,
        ModelKind::kNaiveBayesBackward, ModelKind::kLogRegL1}) {
    Result<VariantResult> r = RunVariant(prepared, kind,
                                         FeatureVariant::kNoJoin,
                                         Effort::kQuick);
    ASSERT_TRUE(r.ok()) << ModelKindName(kind) << ": "
                        << r.status().ToString();
    EXPECT_GE(r.value().test_accuracy, 0.0);
    EXPECT_LE(r.value().test_accuracy, 1.0);
  }
}

TEST(ExperimentTest, AnnRunsOnTinyData) {
  // The MLP is slower; give it its own smoke test so failures attribute.
  PreparedData prepared = PrepareOneXr(150, 10, 6);
  Result<VariantResult> r = RunVariant(prepared, ModelKind::kAnnMlp,
                                       FeatureVariant::kNoJoin,
                                       Effort::kQuick);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.value().test_accuracy, 0.4);
}

TEST(ExperimentTest, GridsMatchPaperInFullMode) {
  // Full-effort grids reproduce the paper's §3.2 axes.
  const auto tree = GridFor(ModelKind::kTreeGini, Effort::kFull).Enumerate();
  EXPECT_EQ(tree.size(), 4u * 5u);
  const auto rbf = GridFor(ModelKind::kSvmRbf, Effort::kFull).Enumerate();
  EXPECT_EQ(rbf.size(), 5u * 6u);
  const auto ann = GridFor(ModelKind::kAnnMlp, Effort::kFull).Enumerate();
  EXPECT_EQ(ann.size(), 3u * 3u);
  const auto nb =
      GridFor(ModelKind::kNaiveBayesBackward, Effort::kFull).Enumerate();
  EXPECT_EQ(nb.size(), 1u);  // no hyper-parameters
}

TEST(ExperimentTest, EffortFromEnvDefaultsToQuick) {
  unsetenv("HAMLET_BENCH_MODE");
  EXPECT_EQ(EffortFromEnv(), Effort::kQuick);
  setenv("HAMLET_BENCH_MODE", "full", 1);
  EXPECT_EQ(EffortFromEnv(), Effort::kFull);
  unsetenv("HAMLET_BENCH_MODE");
}

TEST(ExperimentTest, BenchModeFromEnvRecognisesAllTiers) {
  unsetenv("HAMLET_BENCH_MODE");
  EXPECT_EQ(BenchModeFromEnv(), BenchMode::kQuick);
  setenv("HAMLET_BENCH_MODE", "smoke", 1);
  EXPECT_EQ(BenchModeFromEnv(), BenchMode::kSmoke);
  EXPECT_EQ(EffortFromEnv(), Effort::kQuick);  // smoke keeps quick grids
  setenv("HAMLET_BENCH_MODE", "full", 1);
  EXPECT_EQ(BenchModeFromEnv(), BenchMode::kFull);
  setenv("HAMLET_BENCH_MODE", "quick", 1);
  EXPECT_EQ(BenchModeFromEnv(), BenchMode::kQuick);
  setenv("HAMLET_BENCH_MODE", "bogus", 1);
  EXPECT_EQ(BenchModeFromEnv(), BenchMode::kQuick);
  unsetenv("HAMLET_BENCH_MODE");
}

TEST(ExperimentTest, BenchModeFromEnvWarnsOnUnrecognizedValue) {
  // A typo like "fulll" must not silently mean quick mode: the fallback is
  // explicit on stderr (once per distinct value, so repeated parses of the
  // same typo stay quiet).
  setenv("HAMLET_BENCH_MODE", "fulll", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(BenchModeFromEnv(), BenchMode::kQuick);
  std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("fulll"), std::string::npos) << warning;
  EXPECT_NE(warning.find("quick"), std::string::npos) << warning;

  testing::internal::CaptureStderr();
  EXPECT_EQ(BenchModeFromEnv(), BenchMode::kQuick);  // same value: no spam
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  // Recognised values never warn.
  setenv("HAMLET_BENCH_MODE", "smoke", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(BenchModeFromEnv(), BenchMode::kSmoke);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  unsetenv("HAMLET_BENCH_MODE");
}

TEST(ExperimentTest, ModelKindNamesAreUnique) {
  std::set<std::string> names;
  for (auto kind :
       {ModelKind::kTreeGini, ModelKind::kTreeInfoGain,
        ModelKind::kTreeGainRatio, ModelKind::kOneNn, ModelKind::kSvmLinear,
        ModelKind::kSvmPoly, ModelKind::kSvmRbf, ModelKind::kAnnMlp,
        ModelKind::kNaiveBayesBackward, ModelKind::kLogRegL1}) {
    EXPECT_TRUE(names.insert(ModelKindName(kind)).second);
  }
  EXPECT_EQ(names.size(), 10u);
}

TEST(ExperimentTest, RealWorldPipelineEndToEnd) {
  // Integration: simulated Walmart (strong signal) through the runner.
  auto spec = synth::RealWorldSpecByName("Walmart", 0.2);  // small scale
  ASSERT_TRUE(spec.ok());
  StarSchema star = synth::GenerateRealWorld(spec.value());
  Result<PreparedData> prepared =
      Prepare(star, 7, synth::RealWorldJoinOptions(spec.value()));
  ASSERT_TRUE(prepared.ok());
  Result<VariantResult> r = RunVariant(prepared.value(),
                                       ModelKind::kTreeGini,
                                       FeatureVariant::kNoJoin,
                                       Effort::kQuick);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().test_accuracy, 0.6);
}

}  // namespace
}  // namespace core
}  // namespace hamlet
