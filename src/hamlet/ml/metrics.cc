#include "hamlet/ml/metrics.h"

#include <cstdint>
#include <vector>

namespace hamlet {
namespace ml {

double Accuracy(const Classifier& model, const DataView& view) {
  // PredictAll scores rows concurrently on the parallel pool; the integer
  // count below then accumulates in row order regardless of thread count,
  // so the result matches the serial path bit for bit.
  const std::vector<uint8_t> preds = model.PredictAll(view);
  if (preds.empty()) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < preds.size(); ++i) {
    correct += preds[i] == view.label(i);
  }
  return static_cast<double>(correct) / static_cast<double>(preds.size());
}

double ErrorRate(const Classifier& model, const DataView& view) {
  return 1.0 - Accuracy(model, view);
}

}  // namespace ml
}  // namespace hamlet
