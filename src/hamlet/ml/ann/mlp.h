// Multi-layer perceptron for binary classification over one-hot inputs.
//
// Matches the paper's ANN (§3.2): two hidden layers of 256 and 64 ReLU
// units, sigmoid output, L2 weight penalty, trained with Adam. The input
// is the one-hot encoding of the categorical row; because exactly one unit
// per feature is active, the first layer runs sparsely (sum of active
// columns) and its gradient/Adam state updates lazily per active column.
//
// Layout and speed (docs/ARCHITECTURE.md, "The MLP chain"): the first
// layer is one flat unit-major slab, unit u's h1-wide column at
// [u * h1, (u + 1) * h1); dense weights are row-major. A minibatch runs
// through the dense layers as one block of rows, so each weight is loaded
// once per register tile of rows instead of once per row. Each touched
// first-layer column's gradient is summed in registers from its rows'
// deltas and fed straight to its Adam step. The vector kernels live in
// simd/ (simd::MlpKernels), built for two-double baseline vectors and
// four-double AVX2 vectors and picked from the CPU. They are vectorised
// across independent elements only: every floating-point sum keeps the
// operand order of the plain one-row-at-a-time algorithm and nothing is
// fused, so a fit and its predictions are bit-identical to that
// algorithm's on either build. tests/ann_test.cc pins the bits;
// tests/mlp_kernel_parity_test.cc checks both builds kernel by kernel.

#ifndef HAMLET_ML_ANN_MLP_H_
#define HAMLET_ML_ANN_MLP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hamlet/data/one_hot.h"
#include "hamlet/ml/classifier.h"

namespace hamlet {
namespace ml {

struct MlpBlock;  // activations of a block of rows (mlp.cc)

/// Hyper-parameters; defaults follow the paper's architecture and the
/// midpoints of its tuning grids.
struct MlpConfig {
  std::vector<size_t> hidden_sizes = {256, 64};
  double learning_rate = 1e-2;  ///< Adam step size (grid: 1e-3..1e-1)
  double l2 = 1e-3;             ///< L2 penalty (grid: 1e-4..1e-2)
  size_t epochs = 12;
  size_t batch_size = 32;
  /// Adam moment decay (paper: library defaults).
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  uint64_t seed = 1;
};

/// The one-hot units a minibatch touches, in first-touch order, and each
/// one's block rows, ascending (a CSR over the touched units). A unit's
/// first-layer column gradient is the sum of those rows' first-layer
/// deltas, since the one-hot input is 1 there; Mlp::Fit hands each list
/// to simd::MlpKernels::column_adam_step.
class MlpUnitRows {
 public:
  /// For units in [0, dimension).
  explicit MlpUnitRows(size_t dimension);

  /// Lists the units of a block of `rows` rows, row r's d units at
  /// units[r * d]; replaces the previous block's lists.
  void Build(const uint32_t* units, size_t rows, size_t d);

  std::vector<uint32_t> touched;  ///< the unit of each slot
  std::vector<uint32_t> start;    ///< slot s's rows: [start[s], start[s+1])
  std::vector<uint32_t> row;      ///< block rows, slot after slot

 private:
  static constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);
  std::vector<uint32_t> slot_, cursor_;
};

/// Feed-forward network with a sparse first layer.
class Mlp : public CodeClassifier {
 public:
  explicit Mlp(MlpConfig config = {});

  Status Fit(const DataView& train) override;
  /// One first-layer column per feature, then every dense weight.
  size_t PredictRowCost() const override;
  std::string name() const override { return "ann-mlp"; }

  ModelFamily family() const override { return ModelFamily::kMlp; }
  /// Serializes the inference state only (first-layer columns, biases,
  /// dense layers); Adam moments are training state, freed when Fit
  /// returns and never saved.
  Status SaveBody(io::ModelWriter& writer) const override;
  static Result<std::unique_ptr<Mlp>> LoadBody(
      io::ModelReader& reader, const std::vector<uint32_t>& domains);

  /// P(y = 1 | x) for a row of num_features codes. A code outside the
  /// training domain of its feature is clamped to that feature's last
  /// code.
  double ProbabilityOfCodes(const uint32_t* codes) const;

 private:
  struct DenseLayer {
    size_t in = 0, out = 0;
    std::vector<double> w;  // out x in, row-major
    std::vector<double> b;
  };

  /// Runs the rows forward in blocks of up to 64, one activation scratch
  /// per call; predicts 1 where the probability is >= 0.5.
  void PredictCodes(const uint32_t* codes, size_t rows,
                    uint8_t* out) const override;

  /// Forward pass for `rows` rows at once, row r's active units at
  /// units[r * num_features]: fills `block` with every hidden layer's
  /// (post-ReLU) activations and each row's output logit.
  void ForwardBlock(const uint32_t* units, size_t rows,
                    MlpBlock& block) const;

  /// Active one-hot unit per feature for a row of codes, each code
  /// clamped into its own feature's unit range.
  void RowUnits(const uint32_t* codes, uint32_t* units) const;

  MlpConfig config_;
  OneHotMap one_hot_;
  bool fitted_ = false;
  size_t h1_ = 0;
  std::vector<double> col_w_;  // dimension x h1_, unit-major slab
  std::vector<double> b1_;
  std::vector<DenseLayer> layers_;  // hidden2..output
};

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_ANN_MLP_H_
