// Evaluation metrics for binary classifiers.

#ifndef HAMLET_ML_METRICS_H_
#define HAMLET_ML_METRICS_H_

#include "hamlet/data/view.h"
#include "hamlet/ml/classifier.h"

namespace hamlet {
namespace ml {

/// Fraction of rows where `model` predicts the view's label; 0 for an
/// empty view.
double Accuracy(const Classifier& model, const DataView& view);

/// 1 - Accuracy.
double ErrorRate(const Classifier& model, const DataView& view);

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_METRICS_H_
