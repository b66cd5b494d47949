#include "hamlet/ml/majority.h"

#include <algorithm>

#include "hamlet/io/model_io.h"

namespace hamlet {
namespace ml {

Status MajorityClassifier::Fit(const DataView& train) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training view");
  }
  size_t pos = 0;
  for (size_t i = 0; i < train.num_rows(); ++i) pos += train.label(i);
  positive_rate_ =
      static_cast<double>(pos) / static_cast<double>(train.num_rows());
  prediction_ = (2 * pos >= train.num_rows()) ? 1 : 0;
  fitted_ = true;
  RecordTrainDomains(train);
  return Status::OK();
}

void MajorityClassifier::PredictCodes(const uint32_t* /*codes*/, size_t rows,
                                      uint8_t* out) const {
  std::fill(out, out + rows, prediction_);
}

Status MajorityClassifier::SaveBody(io::ModelWriter& writer) const {
  if (!fitted_) {
    return Status::FailedPrecondition("majority: Save before Fit");
  }
  writer.WriteU8(prediction_);
  writer.WriteF64(positive_rate_);
  return writer.status();
}

Result<std::unique_ptr<MajorityClassifier>> MajorityClassifier::LoadBody(
    io::ModelReader& reader, const std::vector<uint32_t>& /*domains*/) {
  auto model = std::make_unique<MajorityClassifier>();
  HAMLET_RETURN_IF_ERROR(reader.ReadU8(&model->prediction_));
  HAMLET_RETURN_IF_ERROR(reader.ReadF64(&model->positive_rate_));
  if (model->prediction_ > 1) {
    return Status::InvalidArgument(
        "corrupt model: majority prediction not a binary label");
  }
  model->fitted_ = true;
  return Result<std::unique_ptr<MajorityClassifier>>(std::move(model));
}

}  // namespace ml
}  // namespace hamlet
