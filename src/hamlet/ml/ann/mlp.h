// Multi-layer perceptron for binary classification over one-hot inputs.
//
// Matches the paper's ANN (§3.2): two hidden layers of 256 and 64 ReLU
// units, sigmoid output, L2 weight penalty, trained with Adam. The input
// is the one-hot encoding of the categorical row; because exactly one unit
// per feature is active, the first layer runs sparsely (sum of active
// columns) and its gradient/Adam state updates lazily per active column.

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

/// Feed-forward network with a sparse first layer.
class Mlp : public Classifier {
 public:
  explicit Mlp(MlpConfig config = {});

  Status Fit(const DataView& train) override;
  uint8_t Predict(const DataView& view, size_t i) const override;
  std::string name() const override { return "ann-mlp"; }

  ModelFamily family() const override { return ModelFamily::kMlp; }
  /// Serializes the inference state only (first-layer columns, biases,
  /// dense layers); Adam moments are training state, freed when Fit
  /// returns and never saved.
  Status SaveBody(io::ModelWriter& writer) const override;
  static Result<std::unique_ptr<Mlp>> LoadBody(
      io::ModelReader& reader, const std::vector<uint32_t>& domains);

  /// P(y = 1 | x) for row i of `view`.
  double PredictProbability(const DataView& view, size_t i) const;

 private:
  struct DenseLayer {
    size_t in = 0, out = 0;
    std::vector<double> w;  // out x in, row-major
    std::vector<double> b;
    // Adam state; empty outside Fit.
    std::vector<double> mw, vw, mb, vb;
  };

  /// Forward pass from the active one-hot units; fills per-layer
  /// activations (post-ReLU) and returns the output probability.
  double Forward(const std::vector<uint32_t>& active,
                 std::vector<std::vector<double>>& acts) const;

  MlpConfig config_;
  OneHotMap one_hot_;
  bool fitted_ = false;
  // First layer stored column-major over one-hot units for sparse access:
  // col_w_[u] is the h1-sized column for unit u.
  std::vector<std::vector<double>> col_w_;
  std::vector<std::vector<double>> col_m_, col_v_;  // Adam state, Fit only
  std::vector<double> b1_, m_b1_, v_b1_;
  std::vector<DenseLayer> layers_;  // hidden2..output
  size_t h1_ = 0;
  size_t adam_t_ = 0;
};

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_ANN_MLP_H_
