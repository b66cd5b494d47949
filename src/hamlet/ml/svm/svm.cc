#include "hamlet/ml/svm/svm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "hamlet/common/counters.h"
#include "hamlet/io/model_io.h"
#include "hamlet/ml/svm/kernel_cache.h"

namespace hamlet {
namespace ml {

namespace {

/// Per-thread match-count buffer of at least `n` entries for scoring a
/// block of queries (like ThreadLocalPackScratch, valid until the next
/// call on the same thread).
uint32_t* ThreadLocalCountScratch(size_t n) {
  thread_local std::vector<uint32_t> scratch;
  if (scratch.size() < n) scratch.resize(n);
  return scratch.data();
}

}  // namespace

KernelSvm::KernelSvm(SvmConfig config) : config_(config) {}

std::string KernelSvm::name() const {
  return std::string("svm-") + KernelTypeName(config_.kernel.type);
}

Status KernelSvm::Fit(const DataView& train) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training view");
  }
  // Materialise once (prefix subsample when capped; the view's row order
  // is already a shuffle of the original data); the kernel-row cache and
  // support-vector extraction below run on the dense buffer.
  CodeMatrix m(train, config_.max_train_rows);
  d_ = m.num_features();
  const size_t n = m.num_rows();

  size_t pos = 0;
  for (size_t i = 0; i < n; ++i) pos += m.label(i);
  if (pos == 0 || pos == n || d_ == 0) {
    // Single-class data, or no features to separate on: fall back to a
    // constant prediction at the majority label (ties go to 1).
    is_constant_ = true;
    constant_prediction_ = (2 * pos >= n) ? 1 : 0;
    converged_ = true;
    // Nothing of an earlier fit survives: a constant model's decision
    // value is its bias alone, 0 as in a fresh model, and its layout
    // packs no codes.
    bias_ = 0.0;
    sv_rows_.clear();
    sv_coeff_.clear();
    sv_layout_ = simd::PackedLayout{};
    sv_packed_.clear();
    sv_kernel_by_matches_.clear();
    fitted_ = true;
    RecordTrainDomains(train);
    return Status::OK();
  }
  is_constant_ = false;

  std::vector<int8_t> y(n);
  for (size_t i = 0; i < n; ++i) y[i] = m.label(i) == 1 ? 1 : -1;

  // Lazy kernel rows instead of the old upfront O(n^2) Gram: SMO only
  // touches the rows its working sets select, so peak memory is bounded
  // by the cache budget and early-converging grid cells skip most of the
  // matrix. The cache owns the code matrix from here on.
  SmoConfig smo_cfg;
  smo_cfg.C = config_.C;
  smo_cfg.tolerance = config_.tolerance;
  smo_cfg.max_iterations = config_.max_iterations;
  smo_cfg.cache_bytes = config_.smo_cache_bytes;
  KernelCache cache(std::move(m), config_.kernel, smo_cfg.cache_bytes);
  Result<SmoSolution> sol = SolveSmo(cache, y, smo_cfg);
  if (!sol.ok()) return sol.status();

  converged_ = sol.value().converged;
  bias_ = sol.value().bias;
  sv_rows_.clear();
  sv_coeff_.clear();
  const std::vector<uint32_t>& rows = cache.matrix().codes();
  for (size_t i = 0; i < n; ++i) {
    const double a = sol.value().alpha[i];
    if (a > 1e-10) {
      sv_coeff_.push_back(a * static_cast<double>(y[i]));
      sv_rows_.insert(sv_rows_.end(), rows.begin() + static_cast<long>(i * d_),
                      rows.begin() + static_cast<long>((i + 1) * d_));
    }
  }
  PackSupportVectors(cache.matrix().domain_sizes());
  fitted_ = true;
  RecordTrainDomains(train);
  return Status::OK();
}

void KernelSvm::PackSupportVectors(const std::vector<uint32_t>& domains) {
  sv_layout_ = simd::PackedLayout::ForDomains(domains.data(), d_);
  const size_t num_sv = sv_coeff_.size();
  const size_t words_per_row = sv_layout_.words_per_row;
  sv_packed_.assign(num_sv * words_per_row, 0);
  for (size_t s = 0; s < num_sv; ++s) {
    sv_layout_.PackRow(sv_rows_.data() + s * d_,
                       sv_packed_.data() + s * words_per_row);
  }
  sv_kernel_by_matches_ = KernelValuesByMatches(config_.kernel, d_);
  counters::Add(counters::Counter::kPackedBuilds, 1);
  counters::Add(counters::Counter::kPackedRows, num_sv);
  counters::Add(counters::Counter::kPackedBuildWords, sv_packed_.size());
}

Status KernelSvm::SaveBody(io::ModelWriter& writer) const {
  if (!fitted_) {
    return Status::FailedPrecondition("svm: Save before Fit");
  }
  writer.WriteU32(static_cast<uint32_t>(config_.kernel.type));
  writer.WriteF64(config_.kernel.gamma);
  writer.WriteI32(config_.kernel.degree);
  writer.WriteU64(d_);
  writer.WriteU8(is_constant_ ? 1 : 0);
  writer.WriteU8(constant_prediction_);
  writer.WriteU8(converged_ ? 1 : 0);
  writer.WriteF64(bias_);
  writer.WriteF64Vec(sv_coeff_);
  writer.WriteU32Vec(sv_rows_);
  return writer.status();
}

Result<std::unique_ptr<KernelSvm>> KernelSvm::LoadBody(
    io::ModelReader& reader, const std::vector<uint32_t>& domains) {
  SvmConfig config;
  uint32_t kernel_type;
  HAMLET_RETURN_IF_ERROR(reader.ReadU32(&kernel_type));
  if (kernel_type > static_cast<uint32_t>(KernelType::kRbf)) {
    return Status::InvalidArgument("corrupt model: unknown svm kernel type");
  }
  config.kernel.type = static_cast<KernelType>(kernel_type);
  HAMLET_RETURN_IF_ERROR(reader.ReadF64(&config.kernel.gamma));
  HAMLET_RETURN_IF_ERROR(reader.ReadI32(&config.kernel.degree));
  // Each poly kernel evaluation loops `degree` times, so an unchecked
  // degree from the file (v1 files carry no checksum) could stall every
  // prediction.
  if (config.kernel.degree < 1 || config.kernel.degree > kMaxKernelDegree) {
    return Status::InvalidArgument(
        "corrupt model: svm kernel degree " +
        std::to_string(config.kernel.degree) + " outside [1, " +
        std::to_string(kMaxKernelDegree) + "]");
  }
  if (!std::isfinite(config.kernel.gamma)) {
    return Status::InvalidArgument("corrupt model: svm gamma not finite");
  }
  auto model = std::make_unique<KernelSvm>(config);
  uint64_t d;
  uint8_t is_constant, converged;
  HAMLET_RETURN_IF_ERROR(reader.ReadU64(&d));
  if (d != domains.size()) {
    return Status::InvalidArgument(
        "corrupt model: svm feature count disagrees with the header");
  }
  model->d_ = static_cast<size_t>(d);
  HAMLET_RETURN_IF_ERROR(reader.ReadU8(&is_constant));
  HAMLET_RETURN_IF_ERROR(reader.ReadU8(&model->constant_prediction_));
  HAMLET_RETURN_IF_ERROR(reader.ReadU8(&converged));
  model->is_constant_ = is_constant != 0;
  model->converged_ = converged != 0;
  HAMLET_RETURN_IF_ERROR(reader.ReadF64(&model->bias_));
  HAMLET_RETURN_IF_ERROR(reader.ReadF64Vec(&model->sv_coeff_));
  HAMLET_RETURN_IF_ERROR(reader.ReadU32Vec(&model->sv_rows_));
  if (!std::isfinite(model->bias_) ||
      !std::all_of(model->sv_coeff_.begin(), model->sv_coeff_.end(),
                   [](double c) { return std::isfinite(c); })) {
    return Status::InvalidArgument(
        "corrupt model: svm bias or coefficient not finite");
  }
  if (model->sv_rows_.size() != model->sv_coeff_.size() * model->d_) {
    return Status::InvalidArgument(
        "corrupt model: svm support-vector rows do not match coefficients");
  }
  for (size_t s = 0; s < model->sv_coeff_.size(); ++s) {
    const uint32_t* row = model->sv_rows_.data() + s * model->d_;
    for (size_t j = 0; j < model->d_; ++j) {
      if (row[j] >= domains[j]) {
        return Status::OutOfRange(
            "corrupt model: svm support-vector code outside its domain");
      }
    }
  }
  if (model->constant_prediction_ > 1) {
    return Status::InvalidArgument(
        "corrupt model: svm constant prediction not a binary label");
  }
  model->PackSupportVectors(domains);
  model->fitted_ = true;
  return Result<std::unique_ptr<KernelSvm>>(std::move(model));
}

template <size_t kRows>
void KernelSvm::DecisionValuesOfPacked(const uint64_t* queries,
                                       double* f) const {
  const size_t num_sv = sv_coeff_.size();
  const size_t words_per_row = sv_layout_.words_per_row;
  uint32_t* counts = ThreadLocalCountScratch(kRows * num_sv);
  for (size_t r = 0; r < kRows; ++r) {
    simd::PackedMatchCounts(sv_layout_, queries + r * words_per_row,
                            sv_packed_.data(), nullptr, num_sv,
                            counts + r * num_sv);
  }
  const double* table = sv_kernel_by_matches_.data();
  const double* coeff = sv_coeff_.data();
  // One independent chain per query, each summed in SV order.
  double sum[kRows];
  for (size_t r = 0; r < kRows; ++r) sum[r] = bias_;
  for (size_t s = 0; s < num_sv; ++s) {
    for (size_t r = 0; r < kRows; ++r) {
      sum[r] += coeff[s] * table[counts[r * num_sv + s]];
    }
  }
  for (size_t r = 0; r < kRows; ++r) f[r] = sum[r];
}

void KernelSvm::DecisionValuesOfCodes(const uint32_t* codes, size_t rows,
                                      double* out) const {
  const size_t words_per_row = sv_layout_.words_per_row;
  uint64_t* packed =
      ThreadLocalPackScratch(kScoreBlockRows * words_per_row);
  size_t r = 0;
  for (; r + kScoreBlockRows <= rows; r += kScoreBlockRows) {
    for (size_t q = 0; q < kScoreBlockRows; ++q) {
      sv_layout_.PackRow(codes + (r + q) * d_, packed + q * words_per_row);
    }
    DecisionValuesOfPacked<kScoreBlockRows>(packed, out + r);
  }
  for (; r < rows; ++r) {
    sv_layout_.PackRow(codes + r * d_, packed);
    DecisionValuesOfPacked<1>(packed, out + r);
  }
  const uint64_t evals = rows * sv_coeff_.size();
  counters::Add(counters::Counter::kPackedEvals, evals);
  counters::Add(counters::Counter::kPackedEvalWords, evals * words_per_row);
}

void KernelSvm::PredictCodes(const uint32_t* codes, size_t rows,
                             uint8_t* out) const {
  if (is_constant_) {
    std::fill(out, out + rows, constant_prediction_);
    return;
  }
  constexpr size_t kChunkRows = 64;
  double f[kChunkRows];
  for (size_t r = 0; r < rows; r += kChunkRows) {
    const size_t chunk = std::min(kChunkRows, rows - r);
    DecisionValuesOfCodes(codes + r * d_, chunk, f);
    for (size_t q = 0; q < chunk; ++q) out[r + q] = f[q] >= 0.0 ? 1 : 0;
  }
}

}  // namespace ml
}  // namespace hamlet
