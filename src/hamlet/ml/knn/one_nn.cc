#include "hamlet/ml/knn/one_nn.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "hamlet/common/counters.h"
#include "hamlet/io/model_io.h"

namespace hamlet {
namespace ml {

Status OneNearestNeighbor::Fit(const DataView& train) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training view");
  }
  train_ = CodeMatrix(train);
  packed_train_ = PackedCodeMatrix(train_);
  RecordTrainDomains(train);
  return Status::OK();
}

Status OneNearestNeighbor::SaveBody(io::ModelWriter& writer) const {
  if (train_.num_rows() == 0) {
    return Status::FailedPrecondition("1nn: Save before Fit");
  }
  writer.WriteCodeMatrix(train_);
  return writer.status();
}

Result<std::unique_ptr<OneNearestNeighbor>> OneNearestNeighbor::LoadBody(
    io::ModelReader& reader, const std::vector<uint32_t>& domains) {
  auto model = std::make_unique<OneNearestNeighbor>();
  HAMLET_RETURN_IF_ERROR(reader.ReadCodeMatrix(&model->train_));
  if (model->train_.num_features() != domains.size()) {
    return Status::InvalidArgument(
        "corrupt model: 1nn matrix feature count disagrees with the header");
  }
  if (model->train_.num_rows() == 0) {
    return Status::InvalidArgument("corrupt model: 1nn matrix has no rows");
  }
  for (size_t j = 0; j < domains.size(); ++j) {
    // The matrix carries its own domain sizes; the header is the serving
    // contract, so the two must agree for request validation to hold.
    if (model->train_.domain_size(j) != domains[j]) {
      return Status::InvalidArgument(
          "corrupt model: 1nn matrix domains disagree with the header");
    }
  }
  // Pack only after validation: every code is proven < its domain, so the
  // canonical layout covers the matrix.
  model->packed_train_ = PackedCodeMatrix(model->train_);
  return Result<std::unique_ptr<OneNearestNeighbor>>(std::move(model));
}

size_t OneNearestNeighbor::NearestIndexOfCodes(const uint32_t* query) const {
  assert(train_.num_rows() > 0);
  const simd::PackedLayout& layout = packed_train_.layout();
  const size_t words = layout.words_per_row;
  uint64_t* packed_query = ThreadLocalPackScratch(words);
  layout.PackRow(query, packed_query);
  // The most matches is the least Hamming distance. The scan starts from
  // row 0 with 0 matches (row 0 has at least that many) and only a
  // strictly larger count replaces the incumbent, so the winner is the
  // first row at the least distance. A row matching all d features
  // cannot be beaten: the scan stops after its block.
  constexpr size_t kBlockRows = 256;
  uint32_t counts[kBlockRows] = {};
  size_t best = 0;
  uint32_t best_matches = 0;
  const size_t n = train_.num_rows();
  for (size_t start = 0; start < n; start += kBlockRows) {
    const size_t len = std::min(kBlockRows, n - start);
    simd::PackedMatchCounts(layout, packed_query,
                            packed_train_.data() + start * words, nullptr,
                            len, counts);
    for (size_t k = 0; k < len; ++k) {
      if (counts[k] > best_matches) {
        best_matches = counts[k];
        best = start + k;
      }
    }
    if (best_matches == layout.num_features) break;
  }
  counters::Add(counters::Counter::kPackedEvals, n);
  counters::Add(counters::Counter::kPackedEvalWords,
                static_cast<uint64_t>(n) * words);
  return best;
}

void OneNearestNeighbor::PredictCodes(const uint32_t* codes, size_t rows,
                                      uint8_t* out) const {
  const size_t d = train_.num_features();
  for (size_t r = 0; r < rows; ++r) {
    out[r] = train_.label(NearestIndexOfCodes(codes + r * d));
  }
}

}  // namespace ml
}  // namespace hamlet
