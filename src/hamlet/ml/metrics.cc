#include "hamlet/ml/metrics.h"

namespace hamlet {
namespace ml {

double ConfusionMatrix::accuracy() const {
  const size_t n = total();
  if (n == 0) return 0.0;
  return static_cast<double>(tp + tn) / static_cast<double>(n);
}

double ConfusionMatrix::precision() const {
  const size_t denom = tp + fp;
  return denom == 0 ? 0.0 : static_cast<double>(tp) / denom;
}

double ConfusionMatrix::recall() const {
  const size_t denom = tp + fn;
  return denom == 0 ? 0.0 : static_cast<double>(tp) / denom;
}

double ConfusionMatrix::f1() const {
  const double p = precision();
  const double r = recall();
  return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

ConfusionMatrix Evaluate(const Classifier& model, const DataView& view) {
  // PredictAll scores rows concurrently on the parallel pool, and the hot
  // learners override it with a dense CodeMatrix path; the integer counts
  // below then accumulate in row order regardless of thread count, so the
  // result matches the serial path bit for bit.
  const std::vector<uint8_t> preds = model.PredictAll(view);
  ConfusionMatrix cm;
  for (size_t i = 0; i < preds.size(); ++i) {
    const uint8_t pred = preds[i];
    const uint8_t truth = view.label(i);
    if (pred == 1 && truth == 1) {
      ++cm.tp;
    } else if (pred == 0 && truth == 0) {
      ++cm.tn;
    } else if (pred == 1) {
      ++cm.fp;
    } else {
      ++cm.fn;
    }
  }
  return cm;
}

double Accuracy(const Classifier& model, const DataView& view) {
  return Evaluate(model, view).accuracy();
}

double ErrorRate(const Classifier& model, const DataView& view) {
  return 1.0 - Accuracy(model, view);
}

}  // namespace ml
}  // namespace hamlet
