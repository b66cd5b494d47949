// Categorical Naive Bayes with Laplace smoothing.
//
// One of the paper's linear-capacity baselines (§3). Class-conditional
// probabilities per (feature, code) pair are estimated with add-one
// smoothing (§6.2 references the same smoothing idea for counts), so FK
// values unseen in training still get a nonzero likelihood.

#ifndef HAMLET_ML_NB_NAIVE_BAYES_H_
#define HAMLET_ML_NB_NAIVE_BAYES_H_

#include <cassert>
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

  /// Log P(y=1|x) - log P(y=0|x) for a row of num_features codes:
  /// LogPriorOdds() plus each feature's FeatureLogOdds term, summed in
  /// feature order.
  double LogOddsOfCodes(const uint32_t* codes) const;

  /// Log P(y=1) - log P(y=0): the log odds of a row with no features.
  double LogPriorOdds() const { return log_prior_[1] - log_prior_[0]; }

  /// Feature j's additive log-odds term for `code`. It depends only on
  /// feature j's counts, so a fit on a feature subset has the same terms
  /// for the features it keeps.
  double FeatureLogOdds(size_t j, uint32_t code) const {
    const std::vector<double>& ll = log_likelihood_[j];
    const size_t base = static_cast<size_t>(code) * 2;
    assert(base + 1 < ll.size());
    return ll[base + 1] - ll[base];
  }

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
