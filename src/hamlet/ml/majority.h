// Constant-majority classifier.
//
// Predicts the training set's majority label for every row (ties toward
// 1, matching the KernelSvm degenerate single-class fallback). It is the
// floor every real learner must beat, the fallback the serving path uses
// when a model family cannot fit (e.g. zero features after variant
// selection), and the smallest member of the serialization roster — its
// model file is a header plus three bytes of body.

#ifndef HAMLET_ML_MAJORITY_H_
#define HAMLET_ML_MAJORITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hamlet/ml/classifier.h"

namespace hamlet {
namespace ml {

/// Fit counts labels; every prediction is the majority constant.
class MajorityClassifier : public CodeClassifier {
 public:
  MajorityClassifier() = default;

  Status Fit(const DataView& train) override;
  /// One store per row.
  size_t PredictRowCost() const override { return 1; }
  std::string name() const override { return "majority"; }

  ModelFamily family() const override { return ModelFamily::kMajority; }
  Status SaveBody(io::ModelWriter& writer) const override;
  static Result<std::unique_ptr<MajorityClassifier>> LoadBody(
      io::ModelReader& reader, const std::vector<uint32_t>& domains);

  uint8_t majority_label() const { return prediction_; }
  /// Fraction of training rows labeled 1 (serialized for introspection).
  double positive_rate() const { return positive_rate_; }

 private:
  /// Fills out[0, rows) with the majority label; reads no codes.
  void PredictCodes(const uint32_t* codes, size_t rows,
                    uint8_t* out) const override;

  bool fitted_ = false;
  uint8_t prediction_ = 0;
  double positive_rate_ = 0.0;
};

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_MAJORITY_H_
