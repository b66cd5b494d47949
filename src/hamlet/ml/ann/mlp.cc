#include "hamlet/ml/ann/mlp.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>

#include "hamlet/common/rng.h"
#include "hamlet/data/code_matrix.h"
#include "hamlet/io/model_io.h"
#include "hamlet/simd/simd.h"

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

/// The nonzero entries of a rows x out block of output deltas, listed by
/// output (rows ascending, CSR over outputs) for WeightGrads and by row
/// (outputs ascending, CSR over rows) for InputDeltas. The
/// one-row-at-a-time algorithm skips zero deltas; the lists skip exactly
/// those.
struct NonzeroDeltas {
  std::vector<uint32_t> by_out_start, by_out_row;
  std::vector<double> by_out_delta;
  std::vector<uint32_t> by_row_start, by_row_out;
  std::vector<double> by_row_delta;

  void Build(const double* d, size_t rows, size_t out) {
    by_out_start.assign(out + 1, 0);
    by_row_start.assign(rows + 1, 0);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t o = 0; o < out; ++o) {
        if (d[r * out + o] != 0.0) {
          ++by_out_start[o + 1];
          ++by_row_start[r + 1];
        }
      }
    }
    for (size_t o = 0; o < out; ++o) by_out_start[o + 1] += by_out_start[o];
    for (size_t r = 0; r < rows; ++r) by_row_start[r + 1] += by_row_start[r];
    const size_t nonzero = by_row_start[rows];
    by_out_row.resize(nonzero);
    by_out_delta.resize(nonzero);
    by_row_out.resize(nonzero);
    by_row_delta.resize(nonzero);
    cursor_.assign(by_out_start.begin(), by_out_start.end() - 1);
    size_t e = 0;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t o = 0; o < out; ++o) {
        const double delta = d[r * out + o];
        if (delta == 0.0) continue;
        const uint32_t at = cursor_[o]++;
        by_out_row[at] = static_cast<uint32_t>(r);
        by_out_delta[at] = delta;
        by_row_out[e] = static_cast<uint32_t>(o);
        by_row_delta[e] = delta;
        ++e;
      }
    }
  }

 private:
  std::vector<uint32_t> cursor_;
};

/// n columns of `width` zeros for the first layer's Adam moments, stored
/// in pages of whole columns that stay under glibc malloc's 128 KiB mmap
/// threshold. As single multi-megabyte blocks, freed at the end of every
/// fit, they would raise that threshold to their size; later blocks of
/// that size then come from per-thread heap arenas, which keep them
/// resident after free (grid-highcap's peak RSS rose from 18 to 23.5 MB
/// that way).
class ColumnPages {
 public:
  ColumnPages(size_t width, size_t n)
      : width_(width),
        per_page_(std::max<size_t>(
            1, kPageBytes / (sizeof(double) * std::max<size_t>(1, width)))) {
    while (pages_.size() * per_page_ < n) {
      pages_.emplace_back(per_page_ * width_, 0.0);
    }
  }

  double* column(size_t c) {
    return pages_[c / per_page_].data() + (c % per_page_) * width_;
  }

 private:
  static constexpr size_t kPageBytes = 64 * 1024;
  size_t width_;
  size_t per_page_;
  std::vector<std::vector<double>> pages_;
};

}  // namespace

MlpUnitRows::MlpUnitRows(size_t dimension) : slot_(dimension, kNoSlot) {}

void MlpUnitRows::Build(const uint32_t* units, size_t rows, size_t d) {
  for (uint32_t u : touched) slot_[u] = kNoSlot;
  touched.clear();
  start.assign(1, 0);
  for (size_t e = 0; e < rows * d; ++e) {
    const uint32_t u = units[e];
    if (slot_[u] == kNoSlot) {
      slot_[u] = static_cast<uint32_t>(touched.size());
      touched.push_back(u);
      start.push_back(0);
    }
    ++start[slot_[u] + 1];
  }
  for (size_t s = 0; s < touched.size(); ++s) start[s + 1] += start[s];
  row.resize(rows * d);
  cursor_.assign(start.begin(), start.end() - 1);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t j = 0; j < d; ++j) {
      row[cursor_[slot_[units[r * d + j]]]++] = static_cast<uint32_t>(r);
    }
  }
}

/// A block of rows through the network. acts holds each hidden layer's
/// activations, rows x width row-major, layer after layer; in_t/out_t
/// hold one dense layer's input and output transposed (width x padded,
/// rows padded to a multiple of simd::kMlpRowPad) for the dense kernels.
struct MlpBlock {
  std::vector<double> acts;
  std::vector<double> logits;  // one per row
  std::vector<double> in_t, out_t;
};

Mlp::Mlp(MlpConfig config) : config_(std::move(config)) {}

void Mlp::RowUnits(const uint32_t* codes, uint32_t* units) const {
  for (size_t j = 0; j < one_hot_.num_features(); ++j) {
    units[j] = one_hot_.ClampedUnitIndex(j, codes[j]);
  }
}

void Mlp::ForwardBlock(const uint32_t* units, size_t rows,
                       MlpBlock& block) const {
  const simd::MlpKernels& kernels = simd::HostMlpKernels();
  const size_t d = one_hot_.num_features();
  constexpr size_t kPad = simd::kMlpRowPad;
  const size_t padded = (rows + kPad - 1) / kPad * kPad;
  size_t hidden = h1_, widest = h1_;
  for (const DenseLayer& layer : layers_) {
    if (&layer != &layers_.back()) hidden += layer.out;
    widest = std::max(widest, layer.out);
  }
  block.acts.resize(rows * hidden);
  block.logits.resize(rows);
  block.in_t.resize(widest * padded);
  block.out_t.resize(widest * padded);

  double* a = block.acts.data();
  for (size_t r = 0; r < rows; ++r) {
    kernels.sparse_forward(b1_.data(), col_w_.data(), units + r * d, d, h1_,
                           a + r * h1_);
  }
  // Transpose into the dense kernels' layout; the padding rows are zero
  // and no real row ever reads them.
  for (size_t k = 0; k < h1_; ++k) {
    double* dst = block.in_t.data() + k * padded;
    for (size_t r = 0; r < rows; ++r) dst[r] = a[r * h1_ + k];
    std::fill(dst + rows, dst + padded, 0.0);
  }
  for (size_t l = 0; l < layers_.size(); ++l) {
    const DenseLayer& layer = layers_[l];
    const bool last = l + 1 == layers_.size();
    kernels.dense_forward(layer.w.data(), layer.b.data(), block.in_t.data(),
                          layer.in, layer.out, padded, !last,
                          block.out_t.data());
    if (last) {
      std::copy_n(block.out_t.begin(), rows, block.logits.begin());
      break;
    }
    a += rows * layer.in;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t o = 0; o < layer.out; ++o) {
        a[r * layer.out + o] = block.out_t[o * padded + r];
      }
    }
    std::swap(block.in_t, block.out_t);
  }
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
  const size_t d = train.num_features();
  col_w_.resize(input_dim * h1_);
  for (double& w : col_w_) w = init(d);
  b1_.assign(h1_, 0.0);

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
    layers_.push_back(std::move(layer));
    prev = size;
  }

  // Materialise the rows once and build every row's unit list up front:
  // row i's d active units at units[i * d].
  const CodeMatrix rows(train);
  const size_t n = rows.num_rows();
  std::vector<uint32_t> units(n * d);
  for (size_t i = 0; i < n; ++i) RowUnits(rows.row(i), units.data() + i * d);

  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);

  const simd::MlpKernels& kernels = simd::HostMlpKernels();

  // Adam moments are training state: they live and die with this call.
  ColumnPages col_m(h1_, input_dim), col_v(h1_, input_dim);
  std::vector<double> b1_m(h1_, 0.0), b1_v(h1_, 0.0);
  struct DenseTraining {
    std::vector<double> gw, gb;          // minibatch gradient sums
    std::vector<double> mw, vw, mb, vb;  // Adam moments
  };
  std::vector<DenseTraining> dense(layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    const size_t nw = layers_[l].w.size(), nb = layers_[l].b.size();
    dense[l] = {std::vector<double>(nw), std::vector<double>(nb),
                std::vector<double>(nw, 0.0), std::vector<double>(nw, 0.0),
                std::vector<double>(nb, 0.0), std::vector<double>(nb, 0.0)};
  }

  // Per-minibatch block state: the rows' unit lists, each touched unit's
  // rows, activations, and the deltas (same layout as the activations,
  // plus the output deltas).
  const size_t batch = std::max<size_t>(1, config_.batch_size);
  std::vector<uint32_t> batch_units(batch * d);
  MlpUnitRows unit_rows(input_dim);
  std::vector<uint32_t> block_rows(batch);  // every row: b1's gradient
  std::iota(block_rows.begin(), block_rows.end(), 0u);
  MlpBlock block;
  std::vector<double> deltas, out_deltas(batch);
  NonzeroDeltas nonzero;

  simd::MlpAdam coeffs;
  coeffs.lr = config_.learning_rate;
  coeffs.beta1 = config_.beta1;
  coeffs.beta2 = config_.beta2;
  coeffs.one_minus_beta1 = 1.0 - config_.beta1;
  coeffs.one_minus_beta2 = 1.0 - config_.beta2;
  coeffs.eps = config_.epsilon;
  coeffs.lambda = config_.l2;
  size_t adam_t = 0;

  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < n; start += batch) {
      const size_t stop = std::min(n, start + batch);
      const size_t count = stop - start;

      for (size_t r = 0; r < count; ++r) {
        std::copy_n(units.begin() + static_cast<long>(order[start + r] * d),
                    d, batch_units.begin() + static_cast<long>(r * d));
      }
      unit_rows.Build(batch_units.data(), count, d);
      for (DenseTraining& t : dense) {
        std::fill(t.gw.begin(), t.gw.end(), 0.0);
        std::fill(t.gb.begin(), t.gb.end(), 0.0);
      }

      // Weights stay fixed within a minibatch, so its rows run forward as
      // one block; every gradient below still accumulates row by row in
      // minibatch order.
      ForwardBlock(batch_units.data(), count, block);
      for (size_t r = 0; r < count; ++r) {
        // Output delta for sigmoid + cross-entropy.
        out_deltas[r] = Sigmoid(block.logits[r]) -
                        static_cast<double>(rows.label(order[start + r]));
      }

      // Backprop through the dense layers, top down; layer l's input
      // deltas land at its input activations' offset, so the first hidden
      // layer's, row r's at deltas[r * h1], end up at the front.
      deltas.resize(block.acts.size());
      size_t at = block.acts.size();
      const double* dout = out_deltas.data();
      for (size_t l = layers_.size(); l-- > 0;) {
        const DenseLayer& layer = layers_[l];
        DenseTraining& t = dense[l];
        at -= count * layer.in;
        nonzero.Build(dout, count, layer.out);
        for (size_t o = 0; o < layer.out; ++o) {
          for (uint32_t e = nonzero.by_out_start[o];
               e < nonzero.by_out_start[o + 1]; ++e) {
            t.gb[o] += nonzero.by_out_delta[e];
          }
        }
        kernels.weight_grads(block.acts.data() + at, layer.in, layer.out,
                             nonzero.by_out_start.data(),
                             nonzero.by_out_row.data(),
                             nonzero.by_out_delta.data(), t.gw.data());
        kernels.input_deltas(layer.w.data(), block.acts.data() + at,
                             layer.in, count, nonzero.by_row_start.data(),
                             nonzero.by_row_out.data(),
                             nonzero.by_row_delta.data(), deltas.data() + at);
        dout = deltas.data() + at;
      }

      // Adam updates (L2 added as a gradient term on weights, not biases).
      ++adam_t;
      coeffs.bias1 =
          1.0 - std::pow(config_.beta1, static_cast<double>(adam_t));
      coeffs.bias2 =
          1.0 - std::pow(config_.beta2, static_cast<double>(adam_t));
      coeffs.inv_bs = 1.0 / static_cast<double>(count);
      for (size_t l = 0; l < layers_.size(); ++l) {
        DenseLayer& layer = layers_[l];
        DenseTraining& t = dense[l];
        kernels.adam_step(coeffs, /*decay=*/true, t.gw.data(), layer.w.size(),
                          layer.w.data(), t.mw.data(), t.vw.data());
        kernels.adam_step(coeffs, /*decay=*/false, t.gb.data(),
                          layer.b.size(), layer.b.data(), t.mb.data(),
                          t.vb.data());
      }
      // The first layer's gradients are sums of first-hidden-layer
      // deltas, formed per column in registers: b1's over every row, and
      // lazily each touched unit's column over its rows (untouched
      // columns and their Adam moments do not move).
      kernels.column_adam_step(coeffs, /*decay=*/false, deltas.data(), h1_,
                               block_rows.data(), count, b1_.data(),
                               b1_m.data(), b1_v.data());
      for (size_t slot = 0; slot < unit_rows.touched.size(); ++slot) {
        const size_t u = unit_rows.touched[slot];
        const uint32_t begin = unit_rows.start[slot];
        kernels.column_adam_step(
            coeffs, /*decay=*/true, deltas.data(), h1_,
            unit_rows.row.data() + begin, unit_rows.start[slot + 1] - begin,
            col_w_.data() + u * h1_, col_m.column(u), col_v.column(u));
      }
    }
  }
  fitted_ = true;
  RecordTrainDomains(train);
  return Status::OK();
}

Status Mlp::SaveBody(io::ModelWriter& writer) const {
  if (!fitted_) return Status::FailedPrecondition("ann-mlp: Save before Fit");
  writer.WriteU64(h1_);
  writer.WriteU64(one_hot_.dimension());
  // Fixed-size columns (h1_ each), unit-major; lengths are implied, not
  // repeated.
  for (double w : col_w_) writer.WriteF64(w);
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
  // RowUnits clamps a code into its feature's own unit range, which needs
  // every range to be non-empty.
  for (uint32_t domain : domains) {
    if (domain == 0) {
      return Status::InvalidArgument("corrupt model: empty feature domain");
    }
  }
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
  if (num_cols * h1 > io::kMaxVectorElements) {
    return Status::InvalidArgument("corrupt model: mlp first layer size");
  }
  model->h1_ = static_cast<size_t>(h1);
  model->col_w_.resize(static_cast<size_t>(num_cols * h1));
  for (double& w : model->col_w_) HAMLET_RETURN_IF_ERROR(reader.ReadF64(&w));
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
    // The kernels index w[o * in + k] for o < out, k < in, and chain each
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

size_t Mlp::PredictRowCost() const {
  size_t cost = one_hot_.num_features() * h1_;
  for (const DenseLayer& layer : layers_) cost += layer.in * layer.out;
  return cost;
}

double Mlp::ProbabilityOfCodes(const uint32_t* codes) const {
  std::vector<uint32_t> units(one_hot_.num_features());
  RowUnits(codes, units.data());
  MlpBlock block;
  ForwardBlock(units.data(), 1, block);
  return Sigmoid(block.logits[0]);
}

void Mlp::PredictCodes(const uint32_t* codes, size_t rows,
                       uint8_t* out) const {
  // A block's rows are independent lanes, so each row's logit is
  // bit-identical to ProbabilityOfCodes' one-row block, whatever block
  // or range it runs in.
  constexpr size_t kBlockRows = 64;
  const size_t d = one_hot_.num_features();
  std::vector<uint32_t> units(std::min(rows, kBlockRows) * d);
  MlpBlock block;
  for (size_t begin = 0; begin < rows; begin += kBlockRows) {
    const size_t n = std::min(rows - begin, kBlockRows);
    for (size_t r = 0; r < n; ++r) {
      RowUnits(codes + (begin + r) * d, units.data() + r * d);
    }
    ForwardBlock(units.data(), n, block);
    for (size_t r = 0; r < n; ++r) {
      out[begin + r] = Sigmoid(block.logits[r]) >= 0.5 ? 1 : 0;
    }
  }
}

}  // namespace ml
}  // namespace hamlet
