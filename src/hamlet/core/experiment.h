// Experiment runner: the paper's §3.2 methodology as a reusable harness.
//
// For a star schema (real-world simulator output or a synthetic scenario),
// the runner materialises the join once, builds the 50/25/25 split, and for
// each requested feature variant runs validation-set grid search for a
// model family, reporting accuracies and the chosen hyper-parameters.
// The real-world benches call RunVariant once per table or figure cell.

#ifndef HAMLET_CORE_EXPERIMENT_H_
#define HAMLET_CORE_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "hamlet/common/status.h"
#include "hamlet/core/variants.h"
#include "hamlet/data/split.h"
#include "hamlet/ml/grid_search.h"
#include "hamlet/relational/join.h"
#include "hamlet/relational/star_schema.h"

namespace hamlet {
namespace core {

/// Which classifier to run, with its paper grid.
enum class ModelKind {
  kTreeGini,
  kTreeInfoGain,
  kTreeGainRatio,
  kOneNn,
  kSvmLinear,
  kSvmPoly,
  kSvmRbf,
  kAnnMlp,
  kNaiveBayesBackward,
  kLogRegL1,
};

const char* ModelKindName(ModelKind kind);

/// Effort level for grids and training budgets. kQuick shrinks the grids
/// to keep the full bench suite in minutes; kFull uses the paper's grids.
enum class Effort { kQuick, kFull };

/// The three bench tiers selected by HAMLET_BENCH_MODE: "smoke", "quick"
/// or "full"; the default is kQuick. Grammar and the invalid-value
/// warning are common/env.h's.
/// Grids only distinguish kQuick/kFull (see EffortFromEnv); the bench
/// layer additionally uses kSmoke to shrink run counts and data sizes.
enum class BenchMode { kSmoke, kQuick, kFull };

/// The single parser of HAMLET_BENCH_MODE.
BenchMode BenchModeFromEnv();

/// Grid effort implied by BenchModeFromEnv() (kFull -> kFull, else
/// kQuick).
Effort EffortFromEnv();

/// A joined dataset with its split, ready for variant experiments.
struct PreparedData {
  Dataset data;
  TrainValTest split;
};

/// Joins `star` and builds the 50/25/25 split.
Result<PreparedData> Prepare(const StarSchema& star, uint64_t split_seed,
                             const JoinOptions& join_options = {});

/// Result of one (model, feature subset) experiment.
struct VariantResult {
  std::string variant_name;
  double test_accuracy = 0.0;
  double train_accuracy = 0.0;
  double val_accuracy = 0.0;
  ml::ParamMap best_params;
};

/// Grid-searches `kind` on an explicit feature subset.
Result<VariantResult> RunOnFeatures(const PreparedData& prepared,
                                    ModelKind kind,
                                    const std::vector<uint32_t>& features,
                                    const std::string& variant_name,
                                    Effort effort);

/// Grid-searches `kind` on a named variant (JoinAll / NoJoin / NoFK).
Result<VariantResult> RunVariant(const PreparedData& prepared, ModelKind kind,
                                 FeatureVariant variant, Effort effort);

/// The paper's hyper-parameter grid for `kind` (scaled down for kQuick).
ml::ParamGrid GridFor(ModelKind kind, Effort effort);

/// Model factory honouring the grid's parameter names. `prepared` supplies
/// the validation view needed by backward selection and the glmnet-style
/// lambda-path selection; `features` is the active feature subset.
ml::ModelFactory FactoryFor(ModelKind kind, const PreparedData& prepared,
                            const std::vector<uint32_t>& features,
                            Effort effort);

}  // namespace core
}  // namespace hamlet

#endif  // HAMLET_CORE_EXPERIMENT_H_
