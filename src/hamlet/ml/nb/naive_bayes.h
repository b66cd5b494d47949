// Categorical Naive Bayes with Laplace smoothing.
//
// One of the paper's linear-capacity baselines (§3). Class-conditional
// probabilities per (feature, code) pair are estimated with add-one
// smoothing (§6.2 references the same smoothing idea for counts), so FK
// values unseen in training still get a nonzero likelihood.

#ifndef HAMLET_ML_NB_NAIVE_BAYES_H_
#define HAMLET_ML_NB_NAIVE_BAYES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hamlet/data/code_matrix.h"
#include "hamlet/ml/classifier.h"

namespace hamlet {
namespace ml {

/// Hyper-parameters (Naive Bayes has none to tune in the paper; the
/// pseudocount is exposed for the smoothing tests).
struct NaiveBayesConfig {
  double pseudocount = 1.0;
};

/// Multinomial NB over categorical codes.
class NaiveBayes : public CodeClassifier {
 public:
  explicit NaiveBayes(NaiveBayesConfig config = {});

  Status Fit(const DataView& train) override;
  /// One table lookup per feature.
  size_t PredictRowCost() const override { return d_; }
  std::string name() const override { return "naive-bayes"; }

  /// Log P(y=1|x) - log P(y=0|x) for a row of num_features codes.
  double LogOddsOfCodes(const uint32_t* codes) const;

  ModelFamily family() const override { return ModelFamily::kNaiveBayes; }
  /// Serializes the count tables (as log likelihoods) + priors.
  Status SaveBody(io::ModelWriter& writer) const override;
  static Result<std::unique_ptr<NaiveBayes>> LoadBody(
      io::ModelReader& reader, const std::vector<uint32_t>& domains);

 private:
  /// Predicts 1 where LogOddsOfCodes >= 0.
  void PredictCodes(const uint32_t* codes, size_t rows,
                    uint8_t* out) const override;

  NaiveBayesConfig config_;
  bool fitted_ = false;
  size_t d_ = 0;
  double log_prior_[2] = {0.0, 0.0};
  // log_likelihood_[j][code][y]; flattened per feature as code*2 + y.
  std::vector<std::vector<double>> log_likelihood_;
};

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_NB_NAIVE_BAYES_H_
