// Naive Bayes with greedy backward feature selection (the paper's linear
// baseline, §3).
//
// Starting from all features, repeatedly drops the single feature whose
// removal most improves validation accuracy; stops when no removal helps.
// Naive Bayes log odds are a prior term plus one term per feature, each
// a function of that feature's counts alone, so a refit on a feature
// subset scores exactly like the full fit with the other terms left out:
// one fit serves every candidate subset.

#ifndef HAMLET_ML_NB_BACKWARD_SELECTION_H_
#define HAMLET_ML_NB_BACKWARD_SELECTION_H_

#include <string>
#include <vector>

#include "hamlet/ml/classifier.h"
#include "hamlet/ml/nb/naive_bayes.h"

namespace hamlet {
namespace ml {

/// Selects a feature subset on (train, val) during Fit, then scores as
/// Naive Bayes restricted to that subset.
class BackwardSelectionClassifier : public CodeClassifier {
 public:
  /// `val` supplies the selection signal; it must select as many features
  /// as the training view passed to Fit, in the same order.
  explicit BackwardSelectionClassifier(DataView val);

  Status Fit(const DataView& train) override;
  /// One table lookup per selected feature.
  size_t PredictRowCost() const override { return selected_.size(); }
  std::string name() const override { return "backward-selection"; }

  /// Selected *view-feature* indices (into the training view's features),
  /// ascending.
  const std::vector<uint32_t>& selected_features() const {
    return selected_;
  }

 private:
  /// Predicts 1 where the prior plus the selected features' terms is >= 0.
  void PredictCodes(const uint32_t* codes, size_t rows,
                    uint8_t* out) const override;

  DataView val_;
  NaiveBayes nb_;
  std::vector<uint32_t> selected_;
};

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_NB_BACKWARD_SELECTION_H_
