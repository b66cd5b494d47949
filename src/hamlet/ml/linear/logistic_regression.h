// L1-regularised logistic regression over one-hot features.
//
// The paper's strongest linear baseline (§3.2: glmnet with L1). Training
// follows glmnet's recipe: proximal (ISTA-style) full-batch updates with
// soft-thresholding, warm-started along a geometric lambda path from
// lambda_max (where all penalised weights are zero) downward; the path
// point with the best validation accuracy wins. The intercept is never
// penalised.

#ifndef HAMLET_ML_LINEAR_LOGISTIC_REGRESSION_H_
#define HAMLET_ML_LINEAR_LOGISTIC_REGRESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hamlet/data/code_matrix.h"
#include "hamlet/data/one_hot.h"
#include "hamlet/ml/classifier.h"

namespace hamlet {
namespace ml {

/// Hyper-parameters; names follow glmnet's (nlambda, thresh, maxit).
struct LogisticRegressionConfig {
  size_t nlambda = 20;          ///< path length (paper sets 100 in glmnet)
  double lambda_min_ratio = 0.01;  ///< lambda_min = ratio * lambda_max
  double thresh = 1e-3;         ///< relative objective change to stop
  size_t maxit = 500;           ///< proximal iterations per path point
  /// Validation view used to pick the path point. If unset (empty view),
  /// the smallest lambda is used.
  bool has_validation = false;
  DataView validation;
};

/// Sparse-input L1 logistic regression.
class LogisticRegressionL1 : public CodeClassifier {
 public:
  explicit LogisticRegressionL1(LogisticRegressionConfig config = {});

  Status Fit(const DataView& train) override;
  /// One weight lookup per feature.
  size_t PredictRowCost() const override {
    return one_hot_.num_features();
  }
  std::string name() const override { return "logreg-l1"; }

  ModelFamily family() const override { return ModelFamily::kLogRegL1; }
  Status SaveBody(io::ModelWriter& writer) const override;
  /// Rebuilds the one-hot map from the header's domain metadata, so the
  /// restored embedding matches any view with the training domains.
  static Result<std::unique_ptr<LogisticRegressionL1>> LoadBody(
      io::ModelReader& reader, const std::vector<uint32_t>& domains);

  /// P(y=1|x) for a row of num_features codes. A code outside the
  /// training domain of its feature scores as that feature's last code.
  double ProbabilityOfCodes(const uint32_t* codes) const;

  /// Number of nonzero (penalised) weights in the selected model.
  size_t NumNonzeroWeights() const;
  double selected_lambda() const { return selected_lambda_; }

 private:
  /// Predicts 1 where ProbabilityOfCodes >= 0.5.
  void PredictCodes(const uint32_t* codes, size_t rows,
                    uint8_t* out) const override;

  /// intercept + sum of active-unit weights for a row of codes — the
  /// single margin implementation behind fit-time validation scoring and
  /// ProbabilityOfCodes.
  double MarginOfCodes(const uint32_t* codes) const;

  LogisticRegressionConfig config_;
  OneHotMap one_hot_;
  bool fitted_ = false;
  std::vector<double> weights_;
  double intercept_ = 0.0;
  double selected_lambda_ = 0.0;
};

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_LINEAR_LOGISTIC_REGRESSION_H_
