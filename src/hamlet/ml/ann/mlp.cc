#include "hamlet/ml/ann/mlp.h"

#include <cassert>
#include <cmath>
#include <memory>
#include <numeric>
#include <type_traits>
#include <utility>

#include "hamlet/common/rng.h"
#include "hamlet/io/model_io.h"

namespace hamlet {
namespace ml {

namespace {

double Sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

/// One Adam step on a single parameter.
inline void AdamStep(double& param, double grad, double& m, double& v,
                     double lr, double beta1, double beta2, double eps,
                     double bias1, double bias2) {
  m = beta1 * m + (1.0 - beta1) * grad;
  v = beta2 * v + (1.0 - beta2) * grad * grad;
  const double mhat = m / bias1;
  const double vhat = v / bias2;
  param -= lr * mhat / (std::sqrt(vhat) + eps);
}

}  // namespace

Mlp::Mlp(MlpConfig config) : config_(std::move(config)) {}

double Mlp::Forward(const std::vector<uint32_t>& active,
                    std::vector<std::vector<double>>& acts) const {
  // Layer 1 (sparse): h1 = ReLU(b1 + sum of active columns).
  acts.resize(layers_.size() + 1);
  std::vector<double>& h1 = acts[0];
  h1 = b1_;
  for (uint32_t u : active) {
    const std::vector<double>& col = col_w_[u];
    for (size_t k = 0; k < h1_; ++k) h1[k] += col[k];
  }
  for (double& v : h1) v = v > 0.0 ? v : 0.0;

  // Dense layers; all but the last use ReLU.
  for (size_t l = 0; l < layers_.size(); ++l) {
    const DenseLayer& layer = layers_[l];
    const std::vector<double>& in = acts[l];
    std::vector<double>& out = acts[l + 1];
    out.assign(layer.out, 0.0);
    for (size_t o = 0; o < layer.out; ++o) {
      const double* wrow = &layer.w[o * layer.in];
      double z = layer.b[o];
      for (size_t k = 0; k < layer.in; ++k) z += wrow[k] * in[k];
      out[o] = z;
    }
    if (l + 1 < layers_.size()) {
      for (double& v : out) v = v > 0.0 ? v : 0.0;
    }
  }
  return Sigmoid(acts.back()[0]);
}

Status Mlp::Fit(const DataView& train) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training view");
  }
  one_hot_ = OneHotMap(train);
  const size_t input_dim = one_hot_.dimension();
  if (config_.hidden_sizes.empty()) {
    return Status::InvalidArgument("need at least one hidden layer");
  }
  h1_ = config_.hidden_sizes[0];

  Rng rng(config_.seed);
  auto init = [&](size_t fan_in) {
    // He initialisation for ReLU layers.
    return rng.Normal() * std::sqrt(2.0 / static_cast<double>(fan_in));
  };

  // First (sparse) layer: one column per one-hot unit. Fan-in for a row of
  // the first layer is the number of features (active units per row).
  const size_t active_per_row = train.num_features();
  col_w_.assign(input_dim, std::vector<double>(h1_));
  col_m_.assign(input_dim, std::vector<double>(h1_, 0.0));
  col_v_.assign(input_dim, std::vector<double>(h1_, 0.0));
  for (auto& col : col_w_) {
    for (double& w : col) w = init(active_per_row);
  }
  b1_.assign(h1_, 0.0);
  m_b1_.assign(h1_, 0.0);
  v_b1_.assign(h1_, 0.0);

  // Dense layers: hidden[1..] then the single output unit.
  layers_.clear();
  size_t prev = h1_;
  std::vector<size_t> dense_sizes(config_.hidden_sizes.begin() + 1,
                                  config_.hidden_sizes.end());
  dense_sizes.push_back(1);
  for (size_t size : dense_sizes) {
    DenseLayer layer;
    layer.in = prev;
    layer.out = size;
    layer.w.resize(size * prev);
    for (double& w : layer.w) w = init(prev);
    layer.b.assign(size, 0.0);
    layer.mw.assign(size * prev, 0.0);
    layer.vw.assign(size * prev, 0.0);
    layer.mb.assign(size, 0.0);
    layer.vb.assign(size, 0.0);
    layers_.push_back(std::move(layer));
    prev = size;
  }
  adam_t_ = 0;

  const size_t n = train.num_rows();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);

  std::vector<uint32_t> active;
  std::vector<std::vector<double>> acts;
  std::vector<std::vector<double>> deltas(layers_.size() + 1);

  // Minibatch gradient accumulators.
  const size_t batch = std::max<size_t>(1, config_.batch_size);
  std::vector<std::vector<double>> gw(layers_.size());
  std::vector<std::vector<double>> gb(layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    gw[l].assign(layers_[l].w.size(), 0.0);
    gb[l].assign(layers_[l].b.size(), 0.0);
  }
  std::vector<double> g_b1(h1_, 0.0);
  // Sparse first-layer gradient: unit id -> h1-sized gradient column.
  std::vector<std::vector<double>> g_cols;
  std::vector<uint32_t> g_units;
  std::vector<int> unit_slot(input_dim, -1);

  const double lr = config_.learning_rate;
  const double lambda = config_.l2;

  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < n; start += batch) {
      const size_t stop = std::min(n, start + batch);
      const double inv_bs = 1.0 / static_cast<double>(stop - start);

      // Zero accumulators (sparse part resets only touched units).
      for (size_t l = 0; l < layers_.size(); ++l) {
        std::fill(gw[l].begin(), gw[l].end(), 0.0);
        std::fill(gb[l].begin(), gb[l].end(), 0.0);
      }
      std::fill(g_b1.begin(), g_b1.end(), 0.0);
      for (uint32_t u : g_units) unit_slot[u] = -1;
      g_units.clear();
      g_cols.clear();

      for (size_t idx = start; idx < stop; ++idx) {
        const size_t i = order[idx];
        one_hot_.ActiveUnits(train, i, active);
        const double p = Forward(active, acts);
        const double y = static_cast<double>(train.label(i));

        // Output delta for sigmoid + cross-entropy.
        deltas[layers_.size()].assign(1, p - y);

        // Backprop through dense layers.
        for (size_t l = layers_.size(); l-- > 0;) {
          const DenseLayer& layer = layers_[l];
          const std::vector<double>& in =
              acts[l];  // post-activation input to this layer
          const std::vector<double>& dout = deltas[l + 1];
          std::vector<double>& din = deltas[l];
          din.assign(layer.in, 0.0);
          for (size_t o = 0; o < layer.out; ++o) {
            const double d = dout[o];
            if (d == 0.0) continue;
            double* gw_row = &gw[l][o * layer.in];
            const double* w_row = &layer.w[o * layer.in];
            for (size_t k = 0; k < layer.in; ++k) {
              gw_row[k] += d * in[k];
              din[k] += d * w_row[k];
            }
            gb[l][o] += d;
          }
          // ReLU derivative on the layer input (which is acts[l], already
          // rectified: derivative is 1 where act > 0).
          for (size_t k = 0; k < layer.in; ++k) {
            if (in[k] <= 0.0) din[k] = 0.0;
          }
        }

        // Sparse first layer gradient: d(h1)/d(col_u) = 1 for active u.
        const std::vector<double>& d1 = deltas[0];
        for (size_t k = 0; k < h1_; ++k) g_b1[k] += d1[k];
        for (uint32_t u : active) {
          int slot = unit_slot[u];
          if (slot < 0) {
            slot = static_cast<int>(g_cols.size());
            unit_slot[u] = slot;
            g_units.push_back(u);
            g_cols.emplace_back(h1_, 0.0);
          }
          std::vector<double>& gcol = g_cols[static_cast<size_t>(slot)];
          for (size_t k = 0; k < h1_; ++k) gcol[k] += d1[k];
        }
      }

      // Adam updates (L2 added as decoupled-style gradient term).
      ++adam_t_;
      const double bias1 = 1.0 - std::pow(config_.beta1,
                                          static_cast<double>(adam_t_));
      const double bias2 = 1.0 - std::pow(config_.beta2,
                                          static_cast<double>(adam_t_));
      for (size_t l = 0; l < layers_.size(); ++l) {
        DenseLayer& layer = layers_[l];
        for (size_t t = 0; t < layer.w.size(); ++t) {
          const double g = gw[l][t] * inv_bs + lambda * layer.w[t];
          AdamStep(layer.w[t], g, layer.mw[t], layer.vw[t], lr,
                   config_.beta1, config_.beta2, config_.epsilon, bias1,
                   bias2);
        }
        for (size_t t = 0; t < layer.b.size(); ++t) {
          AdamStep(layer.b[t], gb[l][t] * inv_bs, layer.mb[t], layer.vb[t],
                   lr, config_.beta1, config_.beta2, config_.epsilon, bias1,
                   bias2);
        }
      }
      for (size_t k = 0; k < h1_; ++k) {
        AdamStep(b1_[k], g_b1[k] * inv_bs, m_b1_[k], v_b1_[k], lr,
                 config_.beta1, config_.beta2, config_.epsilon, bias1,
                 bias2);
      }
      // Lazy per-column update: only columns touched by this batch move
      // (their Adam moments update with the current timestep correction).
      for (size_t s = 0; s < g_units.size(); ++s) {
        const uint32_t u = g_units[s];
        std::vector<double>& col = col_w_[u];
        std::vector<double>& m = col_m_[u];
        std::vector<double>& v = col_v_[u];
        const std::vector<double>& gcol = g_cols[s];
        for (size_t k = 0; k < h1_; ++k) {
          const double g = gcol[k] * inv_bs + lambda * col[k];
          AdamStep(col[k], g, m[k], v[k], lr, config_.beta1, config_.beta2,
                   config_.epsilon, bias1, bias2);
        }
      }
    }
  }
  // The Adam moments are training-only state: free them so the fitted
  // model holds exactly the inference state LoadBody builds.
  auto release = [](auto& v) { std::decay_t<decltype(v)>().swap(v); };
  release(col_m_);
  release(col_v_);
  release(m_b1_);
  release(v_b1_);
  for (DenseLayer& layer : layers_) {
    release(layer.mw);
    release(layer.vw);
    release(layer.mb);
    release(layer.vb);
  }
  adam_t_ = 0;
  fitted_ = true;
  RecordTrainDomains(train);
  return Status::OK();
}

Status Mlp::SaveBody(io::ModelWriter& writer) const {
  if (!fitted_) return Status::FailedPrecondition("ann-mlp: Save before Fit");
  writer.WriteU64(h1_);
  writer.WriteU64(col_w_.size());
  for (const std::vector<double>& col : col_w_) {
    // Fixed-size columns (h1_ each); lengths are implied, not repeated.
    for (double w : col) writer.WriteF64(w);
  }
  writer.WriteF64Vec(b1_);
  writer.WriteU64(layers_.size());
  for (const DenseLayer& layer : layers_) {
    writer.WriteU64(layer.in);
    writer.WriteU64(layer.out);
    writer.WriteF64Vec(layer.w);
    writer.WriteF64Vec(layer.b);
  }
  return writer.status();
}

Result<std::unique_ptr<Mlp>> Mlp::LoadBody(
    io::ModelReader& reader, const std::vector<uint32_t>& domains) {
  auto model = std::make_unique<Mlp>();
  model->one_hot_ = OneHotMap(domains);
  uint64_t h1, num_cols;
  HAMLET_RETURN_IF_ERROR(reader.ReadU64(&h1));
  HAMLET_RETURN_IF_ERROR(reader.ReadU64(&num_cols));
  if (h1 == 0 || h1 > io::kMaxVectorElements) {
    return Status::InvalidArgument("corrupt model: mlp hidden width");
  }
  if (num_cols != model->one_hot_.dimension()) {
    return Status::InvalidArgument(
        "corrupt model: mlp first-layer columns do not match the one-hot "
        "dimension of the header domains");
  }
  model->h1_ = static_cast<size_t>(h1);
  model->col_w_.assign(static_cast<size_t>(num_cols),
                       std::vector<double>(model->h1_));
  for (std::vector<double>& col : model->col_w_) {
    for (double& w : col) HAMLET_RETURN_IF_ERROR(reader.ReadF64(&w));
  }
  HAMLET_RETURN_IF_ERROR(reader.ReadF64Vec(&model->b1_));
  if (model->b1_.size() != model->h1_) {
    return Status::InvalidArgument(
        "corrupt model: mlp first-layer bias does not match hidden width");
  }
  uint64_t num_layers;
  HAMLET_RETURN_IF_ERROR(reader.ReadU64(&num_layers));
  if (num_layers == 0 || num_layers > 64) {
    return Status::InvalidArgument("corrupt model: mlp layer count");
  }
  size_t prev = model->h1_;
  for (uint64_t l = 0; l < num_layers; ++l) {
    DenseLayer layer;
    uint64_t in, out;
    HAMLET_RETURN_IF_ERROR(reader.ReadU64(&in));
    HAMLET_RETURN_IF_ERROR(reader.ReadU64(&out));
    HAMLET_RETURN_IF_ERROR(reader.ReadF64Vec(&layer.w));
    HAMLET_RETURN_IF_ERROR(reader.ReadF64Vec(&layer.b));
    layer.in = static_cast<size_t>(in);
    layer.out = static_cast<size_t>(out);
    // Forward indexes w[o * in + k] for o < out, k < in, and chains each
    // layer's input to the previous output — enforce the full shape.
    if (layer.in != prev || layer.out == 0 ||
        layer.w.size() != layer.in * layer.out ||
        layer.b.size() != layer.out) {
      return Status::InvalidArgument(
          "corrupt model: mlp dense-layer shape mismatch");
    }
    prev = layer.out;
    model->layers_.push_back(std::move(layer));
  }
  if (prev != 1) {
    return Status::InvalidArgument(
        "corrupt model: mlp output layer is not a single unit");
  }
  // Restore the architecture knob so config introspection matches; all
  // Adam state belongs to training and stays empty, as after Fit.
  model->config_.hidden_sizes.assign(1, model->h1_);
  for (size_t l = 0; l + 1 < model->layers_.size(); ++l) {
    model->config_.hidden_sizes.push_back(model->layers_[l].out);
  }
  model->fitted_ = true;
  return Result<std::unique_ptr<Mlp>>(std::move(model));
}

double Mlp::PredictProbability(const DataView& view, size_t i) const {
  assert(one_hot_.num_features() == view.num_features());
  std::vector<uint32_t> active;
  one_hot_.ActiveUnits(view, i, active);
  // Codes can exceed the training domain only if the caller bypassed the
  // dataset's domain bookkeeping; guard anyway.
  for (uint32_t& u : active) {
    if (u >= col_w_.size()) u = static_cast<uint32_t>(col_w_.size() - 1);
  }
  std::vector<std::vector<double>> acts;
  return Forward(active, acts);
}

uint8_t Mlp::Predict(const DataView& view, size_t i) const {
  return PredictProbability(view, i) >= 0.5 ? 1 : 0;
}

}  // namespace ml
}  // namespace hamlet
