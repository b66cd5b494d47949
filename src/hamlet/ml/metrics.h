// Evaluation metrics for binary classifiers.

#ifndef HAMLET_ML_METRICS_H_
#define HAMLET_ML_METRICS_H_

#include <cstdint>
#include <vector>

#include "hamlet/data/view.h"
#include "hamlet/ml/classifier.h"

namespace hamlet {
namespace ml {

/// 2x2 confusion counts.
struct ConfusionMatrix {
  size_t tp = 0, tn = 0, fp = 0, fn = 0;

  size_t total() const { return tp + tn + fp + fn; }
  double accuracy() const;
  double error_rate() const { return 1.0 - accuracy(); }
  double precision() const;
  double recall() const;
  double f1() const;
};

/// Confusion matrix of `model` on `view`.
ConfusionMatrix Evaluate(const Classifier& model, const DataView& view);

/// Fraction of rows where `model` predicts the view's label.
double Accuracy(const Classifier& model, const DataView& view);

/// 1 - Accuracy.
double ErrorRate(const Classifier& model, const DataView& view);

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_METRICS_H_
