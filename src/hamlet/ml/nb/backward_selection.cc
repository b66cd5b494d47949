#include "hamlet/ml/nb/backward_selection.h"

#include <numeric>
#include <string>

#include "hamlet/data/code_matrix.h"

namespace hamlet {
namespace ml {

BackwardSelectionClassifier::BackwardSelectionClassifier(DataView val)
    : val_(std::move(val)) {}

Status BackwardSelectionClassifier::Fit(const DataView& train) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training view");
  }
  const size_t d = train.num_features();
  if (val_.num_features() != d) {
    return Status::InvalidArgument(
        "validation view has " + std::to_string(val_.num_features()) +
        " features, training view has " + std::to_string(d));
  }
  HAMLET_RETURN_IF_ERROR(nb_.Fit(train));

  // Each validation row's per-feature log-odds terms, tabulated once.
  const CodeMatrix val(val_);
  const size_t n = val.num_rows();
  std::vector<double> terms(n * d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      terms[i * d + j] = nb_.FeatureLogOdds(j, val.row(i)[j]);
    }
  }
  // Validation accuracy (ml::Accuracy's correct / n, 0 when empty) of
  // Naive Bayes on `kept`: the prior plus the kept terms in ascending
  // feature order, the double sequence NaiveBayes::LogOddsOfCodes sums on
  // a refit over those features alone.
  const double prior = nb_.LogPriorOdds();
  auto accuracy = [&](const std::vector<uint32_t>& kept) {
    if (n == 0) return 0.0;
    size_t correct = 0;
    for (size_t i = 0; i < n; ++i) {
      double odds = prior;
      for (uint32_t j : kept) odds += terms[i * d + j];
      correct += (odds >= 0.0 ? 1 : 0) == val.label(i);
    }
    return static_cast<double>(correct) / static_cast<double>(n);
  };

  std::vector<uint32_t> current(d);
  std::iota(current.begin(), current.end(), 0u);
  double best_acc = accuracy(current);

  // Greedy eliminations; keep at least one feature. Only a strictly
  // better candidate replaces the round's best, so ties go to the
  // earliest dropped feature.
  bool improved = true;
  while (improved && current.size() > 1) {
    improved = false;
    size_t drop_pos = current.size();
    double round_acc = best_acc;
    for (size_t k = 0; k < current.size(); ++k) {
      std::vector<uint32_t> candidate = current;
      candidate.erase(candidate.begin() + static_cast<long>(k));
      const double acc = accuracy(candidate);
      if (acc > round_acc) {
        round_acc = acc;
        drop_pos = k;
      }
    }
    if (drop_pos < current.size()) {
      current.erase(current.begin() + static_cast<long>(drop_pos));
      best_acc = round_acc;
      improved = true;
    }
  }

  selected_ = std::move(current);
  // The wrapper has no serialized form (SaveBody stays the unsupported
  // default); the record sizes the rows PredictCodes receives.
  RecordTrainDomains(train);
  return Status::OK();
}

void BackwardSelectionClassifier::PredictCodes(const uint32_t* codes,
                                               size_t rows,
                                               uint8_t* out) const {
  const size_t d = train_domain_sizes().size();
  for (size_t r = 0; r < rows; ++r) {
    const uint32_t* row = codes + r * d;
    double odds = nb_.LogPriorOdds();
    for (uint32_t j : selected_) odds += nb_.FeatureLogOdds(j, row[j]);
    out[r] = odds >= 0.0 ? 1 : 0;
  }
}

}  // namespace ml
}  // namespace hamlet
