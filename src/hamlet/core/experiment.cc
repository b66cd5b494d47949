#include "hamlet/core/experiment.h"

#include <string>

#include "hamlet/common/env.h"

#include "hamlet/ml/ann/mlp.h"
#include "hamlet/ml/knn/one_nn.h"
#include "hamlet/ml/linear/logistic_regression.h"
#include "hamlet/ml/metrics.h"
#include "hamlet/ml/nb/backward_selection.h"
#include "hamlet/ml/svm/svm.h"
#include "hamlet/ml/tree/decision_tree.h"

namespace hamlet {
namespace core {

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kTreeGini:
      return "dt-gini";
    case ModelKind::kTreeInfoGain:
      return "dt-infogain";
    case ModelKind::kTreeGainRatio:
      return "dt-gainratio";
    case ModelKind::kOneNn:
      return "1nn";
    case ModelKind::kSvmLinear:
      return "svm-linear";
    case ModelKind::kSvmPoly:
      return "svm-poly";
    case ModelKind::kSvmRbf:
      return "svm-rbf";
    case ModelKind::kAnnMlp:
      return "ann";
    case ModelKind::kNaiveBayesBackward:
      return "nb-bfs";
    case ModelKind::kLogRegL1:
      return "logreg-l1";
  }
  return "unknown";
}

BenchMode BenchModeFromEnv() {
  constexpr BenchMode kModes[] = {BenchMode::kSmoke, BenchMode::kQuick,
                                  BenchMode::kFull};
  const std::optional<size_t> choice =
      ChoiceFromEnv("HAMLET_BENCH_MODE", {"smoke", "quick", "full"});
  return choice ? kModes[*choice] : BenchMode::kQuick;
}

Effort EffortFromEnv() {
  return BenchModeFromEnv() == BenchMode::kFull ? Effort::kFull
                                                : Effort::kQuick;
}

Result<PreparedData> Prepare(const StarSchema& star, uint64_t split_seed,
                             const JoinOptions& join_options) {
  Result<Dataset> joined = JoinAllTables(star, join_options);
  if (!joined.ok()) return joined.status();
  PreparedData out{std::move(joined).value(), {}};
  out.split = SplitPaper(out.data.num_rows(), split_seed);
  return out;
}

ml::ParamGrid GridFor(ModelKind kind, Effort effort) {
  ml::ParamGrid grid;
  const bool full = effort == Effort::kFull;
  switch (kind) {
    case ModelKind::kTreeGini:
    case ModelKind::kTreeInfoGain:
    case ModelKind::kTreeGainRatio:
      // Paper: minsplit in {1,10,100,1000}, cp in {1e-4,1e-3,0.01,0.1,0}.
      if (full) {
        grid.Add("minsplit", {1, 10, 100, 1000})
            .Add("cp", {1e-4, 1e-3, 0.01, 0.1, 0.0});
      } else {
        grid.Add("minsplit", {10, 100}).Add("cp", {1e-4, 1e-3, 0.0});
      }
      break;
    case ModelKind::kOneNn:
      break;  // no hyper-parameters (RWeka IB1)
    case ModelKind::kSvmLinear:
      // Paper: C in {0.1, 1, 10, 100, 1000}.
      // Quick mode keeps the small-C half of the axis: large C on noisy
      // one-hot data needs an SMO budget quick mode does not have.
      grid.Add("C", full ? std::vector<double>{0.1, 1, 10, 100, 1000}
                         : std::vector<double>{0.1, 1});
      break;
    case ModelKind::kSvmPoly:
    case ModelKind::kSvmRbf:
      // Paper: C as above, gamma in {1e-4,...,10}.
      if (full) {
        grid.Add("C", {0.1, 1, 10, 100, 1000})
            .Add("gamma", {1e-4, 1e-3, 0.01, 0.1, 1, 10});
      } else {
        grid.Add("C", {1, 100}).Add("gamma", {0.01, 0.1, 1});
      }
      break;
    case ModelKind::kAnnMlp:
      // Paper: L2 in {1e-4,1e-3,1e-2}, lr in {1e-3,1e-2,1e-1}.
      if (full) {
        grid.Add("l2", {1e-4, 1e-3, 1e-2}).Add("lr", {1e-3, 1e-2, 1e-1});
      } else {
        grid.Add("l2", {1e-3}).Add("lr", {1e-2, 1e-1});
      }
      break;
    case ModelKind::kNaiveBayesBackward:
      break;  // no hyper-parameters (selection happens inside Fit)
    case ModelKind::kLogRegL1:
      break;  // glmnet-style internal lambda path
  }
  return grid;
}

ml::ModelFactory FactoryFor(ModelKind kind, const PreparedData& prepared,
                            const std::vector<uint32_t>& features,
                            Effort effort) {
  using ml::ParamOr;
  const DataView val(&prepared.data, prepared.split.val, features);
  const bool full = effort == Effort::kFull;

  switch (kind) {
    case ModelKind::kTreeGini:
    case ModelKind::kTreeInfoGain:
    case ModelKind::kTreeGainRatio: {
      ml::SplitCriterion crit = ml::SplitCriterion::kGini;
      if (kind == ModelKind::kTreeInfoGain) {
        crit = ml::SplitCriterion::kInfoGain;
      } else if (kind == ModelKind::kTreeGainRatio) {
        crit = ml::SplitCriterion::kGainRatio;
      }
      return [crit](const ml::ParamMap& p) {
        ml::DecisionTreeConfig cfg;
        cfg.criterion = crit;
        cfg.minsplit = static_cast<size_t>(ParamOr(p, "minsplit", 10));
        cfg.cp = ParamOr(p, "cp", 0.001);
        return std::make_unique<ml::DecisionTree>(cfg);
      };
    }
    case ModelKind::kOneNn:
      return [](const ml::ParamMap&) {
        return std::make_unique<ml::OneNearestNeighbor>();
      };
    case ModelKind::kSvmLinear:
    case ModelKind::kSvmPoly:
    case ModelKind::kSvmRbf: {
      ml::KernelType kt = ml::KernelType::kRbf;
      if (kind == ModelKind::kSvmLinear) kt = ml::KernelType::kLinear;
      if (kind == ModelKind::kSvmPoly) kt = ml::KernelType::kPoly;
      const size_t cap = full ? 3000 : 1200;
      // SMO needs an update budget that scales with n; starving it makes
      // large-C fits return garbage mid-optimisation.
      const size_t iters = full ? 400000 : 200000;
      return [kt, cap, iters](const ml::ParamMap& p) {
        ml::SvmConfig cfg;
        cfg.kernel.type = kt;
        cfg.kernel.gamma = ParamOr(p, "gamma", 0.1);
        cfg.kernel.degree = 2;
        cfg.C = ParamOr(p, "C", 1.0);
        cfg.max_train_rows = cap;
        cfg.max_iterations = iters;
        return std::make_unique<ml::KernelSvm>(cfg);
      };
    }
    case ModelKind::kAnnMlp: {
      const size_t epochs = full ? 20 : 8;
      return [epochs](const ml::ParamMap& p) {
        ml::MlpConfig cfg;
        cfg.hidden_sizes = {256, 64};
        cfg.learning_rate = ParamOr(p, "lr", 1e-2);
        cfg.l2 = ParamOr(p, "l2", 1e-3);
        cfg.epochs = epochs;
        return std::make_unique<ml::Mlp>(cfg);
      };
    }
    case ModelKind::kNaiveBayesBackward:
      return [val](const ml::ParamMap&) {
        return std::make_unique<ml::BackwardSelectionClassifier>(val);
      };
    case ModelKind::kLogRegL1: {
      const size_t nlambda = full ? 100 : 15;
      return [val, nlambda, full](const ml::ParamMap&) {
        ml::LogisticRegressionConfig cfg;
        cfg.nlambda = nlambda;
        // The paper sets glmnet's thresh=1e-3, but glmnet measures
        // per-coordinate movement; our proximal objective needs a tighter
        // stop (and a deeper path) to reach comparable fits.
        // glmnet's n > d default: lambda_min = 1e-4 * lambda_max. The
        // joined feature sets mix frequent (X_R prototype) and rare (FK
        // code) one-hot units, so the path must reach far enough down for
        // the rare units' weights to activate.
        cfg.lambda_min_ratio = 1e-4;
        cfg.maxit = full ? 10000 : 3000;
        cfg.thresh = 1e-5;
        cfg.has_validation = true;
        cfg.validation = val;
        return std::make_unique<ml::LogisticRegressionL1>(cfg);
      };
    }
  }
  return nullptr;
}

Result<VariantResult> RunOnFeatures(const PreparedData& prepared,
                                    ModelKind kind,
                                    const std::vector<uint32_t>& features,
                                    const std::string& variant_name,
                                    Effort effort) {
  const SplitViews views =
      MakeSplitViews(prepared.data, prepared.split, features);

  Result<ml::GridSearchResult> search =
      ml::GridSearch(FactoryFor(kind, prepared, features, effort),
                     GridFor(kind, effort), views.train, views.val);
  if (!search.ok()) return search.status();

  VariantResult out;
  out.variant_name = variant_name;
  out.best_params = search.value().best_params;
  out.val_accuracy = search.value().best_val_accuracy;
  const ml::Classifier& model = *search.value().best_model;
  out.test_accuracy = ml::Accuracy(model, views.test);
  out.train_accuracy = ml::Accuracy(model, views.train);
  return out;
}

Result<VariantResult> RunVariant(const PreparedData& prepared, ModelKind kind,
                                 FeatureVariant variant, Effort effort) {
  return RunOnFeatures(prepared, kind, SelectVariant(prepared.data, variant),
                       FeatureVariantName(variant), effort);
}

}  // namespace core
}  // namespace hamlet
