// 1-nearest-neighbour classifier over categorical features.
//
// The paper's "braindead" baseline (§3, §5): with one-hot encoding the
// squared Euclidean distance between two rows is 2 × (#mismatching
// features), so 1-NN reduces to Hamming distance over the code vectors.
// Ties break toward the earliest training row, keeping results
// deterministic. No hyper-parameters (as in RWeka's IB1).

#ifndef HAMLET_ML_KNN_ONE_NN_H_
#define HAMLET_ML_KNN_ONE_NN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hamlet/data/code_matrix.h"
#include "hamlet/data/packed_code_matrix.h"
#include "hamlet/ml/classifier.h"

namespace hamlet {
namespace ml {

/// Brute-force 1-NN: Hamming distance as a packed match count.
class OneNearestNeighbor : public CodeClassifier {
 public:
  OneNearestNeighbor() = default;

  Status Fit(const DataView& train) override;
  /// The scan compares every packed word of every training row.
  size_t PredictRowCost() const override {
    return packed_train_.num_words();
  }
  std::string name() const override { return "1nn"; }

  ModelFamily family() const override { return ModelFamily::kOneNn; }
  /// 1-NN's "model" is its training matrix; the whole CodeMatrix is the
  /// serialized body.
  Status SaveBody(io::ModelWriter& writer) const override;
  static Result<std::unique_ptr<OneNearestNeighbor>> LoadBody(
      io::ModelReader& reader, const std::vector<uint32_t>& domains);

  /// Index (into the training view's rows) of the nearest neighbour of
  /// a query of num_features codes; exposed for the §5 analysis of
  /// FK-driven matching. The query is packed once, and the packed
  /// training rows are counted against it in fixed blocks of rows with
  /// simd::PackedMatchCounts. The first row with the most matches wins,
  /// which is the first row at the least Hamming distance: the scalar
  /// per-feature scan's answer, ties breaking toward the earliest
  /// training row. The scan stops after the block holding the first
  /// row that matches every feature.
  size_t NearestIndexOfCodes(const uint32_t* query) const;

 private:
  /// The nearest training row's label for each query row.
  void PredictCodes(const uint32_t* codes, size_t rows,
                    uint8_t* out) const override;

  // Training data is materialised row-major for scan locality, with a
  // bit-packed mirror (built at Fit/LoadBody) for the distance scan.
  CodeMatrix train_;
  PackedCodeMatrix packed_train_;
};

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_KNN_ONE_NN_H_
