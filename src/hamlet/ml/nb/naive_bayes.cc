#include "hamlet/ml/nb/naive_bayes.h"

#include <cassert>
#include <cmath>

#include "hamlet/io/model_io.h"
#include "hamlet/simd/simd.h"

namespace hamlet {
namespace ml {

NaiveBayes::NaiveBayes(NaiveBayesConfig config) : config_(config) {}

Status NaiveBayes::Fit(const DataView& train) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training view");
  }
  const CodeMatrix m(train);
  const size_t n = m.num_rows();
  d_ = m.num_features();

  size_t pos = 0;
  for (size_t i = 0; i < n; ++i) pos += m.label(i);
  const size_t neg = n - pos;
  // Priors with the same pseudocount to stay defined for one-class data.
  const double a = config_.pseudocount;
  log_prior_[1] = std::log((static_cast<double>(pos) + a) /
                           (static_cast<double>(n) + 2.0 * a));
  log_prior_[0] = std::log((static_cast<double>(neg) + a) /
                           (static_cast<double>(n) + 2.0 * a));

  // One row-major pass over the dense matrix fills every feature's
  // (code, label) counts in a single flat buffer (prefix offsets of
  // 2 * domain_size per feature), so the hot loop has no per-feature
  // pointer chase. The counts are integers accumulated through the
  // simd helper (multi-lane histograms; the lane split breaks the
  // store-to-load dependency between adjacent rows). Integer sums are
  // order-independent and every count is far below 2^53, so the double
  // conversion below is exact and the log tables stay bit-identical
  // across thread counts and the old double-accumulating loop.
  std::vector<size_t> offsets(d_ + 1, 0);
  for (size_t j = 0; j < d_; ++j) {
    offsets[j + 1] = offsets[j] + static_cast<size_t>(m.domain_size(j)) * 2;
  }
  std::vector<uint32_t> counts(offsets[d_], 0);
  simd::CountCodeLabelPairs(m.codes().data(), m.labels().data(), n, d_,
                            offsets.data(), counts.data());

  log_likelihood_.assign(d_, {});
  for (size_t j = 0; j < d_; ++j) {
    const uint32_t domain = m.domain_size(j);
    const double denom_pos =
        static_cast<double>(pos) + a * static_cast<double>(domain);
    const double denom_neg =
        static_cast<double>(neg) + a * static_cast<double>(domain);
    const uint32_t* feature_counts = counts.data() + offsets[j];
    std::vector<double>& ll = log_likelihood_[j];
    ll.resize(static_cast<size_t>(domain) * 2);
    for (uint32_t c = 0; c < domain; ++c) {
      ll[static_cast<size_t>(c) * 2 + 1] = std::log(
          (static_cast<double>(feature_counts[static_cast<size_t>(c) * 2 + 1]) +
           a) /
          denom_pos);
      ll[static_cast<size_t>(c) * 2 + 0] = std::log(
          (static_cast<double>(feature_counts[static_cast<size_t>(c) * 2 + 0]) +
           a) /
          denom_neg);
    }
  }
  fitted_ = true;
  RecordTrainDomains(train);
  return Status::OK();
}

Status NaiveBayes::SaveBody(io::ModelWriter& writer) const {
  if (!fitted_) return Status::FailedPrecondition("nb: Save before Fit");
  writer.WriteF64(config_.pseudocount);
  writer.WriteU64(d_);
  writer.WriteF64(log_prior_[0]);
  writer.WriteF64(log_prior_[1]);
  for (const std::vector<double>& ll : log_likelihood_) {
    writer.WriteF64Vec(ll);
  }
  return writer.status();
}

Result<std::unique_ptr<NaiveBayes>> NaiveBayes::LoadBody(
    io::ModelReader& reader, const std::vector<uint32_t>& domains) {
  NaiveBayesConfig config;
  uint64_t d;
  HAMLET_RETURN_IF_ERROR(reader.ReadF64(&config.pseudocount));
  HAMLET_RETURN_IF_ERROR(reader.ReadU64(&d));
  if (d != domains.size()) {
    return Status::InvalidArgument(
        "corrupt model: nb feature count disagrees with the header");
  }
  auto model = std::make_unique<NaiveBayes>(config);
  model->d_ = static_cast<size_t>(d);
  HAMLET_RETURN_IF_ERROR(reader.ReadF64(&model->log_prior_[0]));
  HAMLET_RETURN_IF_ERROR(reader.ReadF64(&model->log_prior_[1]));
  model->log_likelihood_.assign(model->d_, {});
  for (size_t j = 0; j < model->d_; ++j) {
    std::vector<double>& ll = model->log_likelihood_[j];
    HAMLET_RETURN_IF_ERROR(reader.ReadF64Vec(&ll));
    // LogOddsOfCodes reads the (code*2, code*2+1) pair for any in-domain
    // code, so the table must cover the header's full domain.
    if (ll.size() != static_cast<size_t>(domains[j]) * 2) {
      return Status::InvalidArgument(
          "corrupt model: nb likelihood table does not cover its domain");
    }
  }
  model->fitted_ = true;
  return Result<std::unique_ptr<NaiveBayes>>(std::move(model));
}

double NaiveBayes::LogOddsOfCodes(const uint32_t* codes) const {
  double odds = log_prior_[1] - log_prior_[0];
  for (size_t j = 0; j < d_; ++j) {
    const std::vector<double>& ll = log_likelihood_[j];
    const size_t base = static_cast<size_t>(codes[j]) * 2;
    assert(base + 1 < ll.size());
    odds += ll[base + 1] - ll[base];
  }
  return odds;
}

void NaiveBayes::PredictCodes(const uint32_t* codes, size_t rows,
                              uint8_t* out) const {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = LogOddsOfCodes(codes + r * d_) >= 0.0 ? 1 : 0;
  }
}

}  // namespace ml
}  // namespace hamlet
