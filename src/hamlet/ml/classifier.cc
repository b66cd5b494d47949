#include "hamlet/ml/classifier.h"

#include <cassert>

#include "hamlet/data/code_matrix.h"

namespace hamlet {
namespace ml {

namespace {

/// Row `i` of `view`, gathered into this thread's scratch buffer; valid
/// until the next call on the same thread. Lets the per-row Predict score
/// one row without allocating.
const uint32_t* GatherRow(const DataView& view, size_t i) {
  thread_local std::vector<uint32_t> codes;
  codes.resize(view.num_features());
  for (size_t j = 0; j < codes.size(); ++j) codes[j] = view.feature(i, j);
  return codes.data();
}

/// The Classifier contract: a fitted model scores views that select its
/// training features (an unfitted or header-less model has no record).
[[maybe_unused]] bool MatchesTrainingFeatures(const Classifier& model,
                                              const DataView& view) {
  const size_t trained = model.train_domain_sizes().size();
  return trained == 0 || trained == view.num_features();
}

}  // namespace

const char* ModelFamilyName(ModelFamily family) {
  switch (family) {
    case ModelFamily::kUnsupported:
      return "unsupported";
    case ModelFamily::kDecisionTree:
      return "decision-tree";
    case ModelFamily::kNaiveBayes:
      return "naive-bayes";
    case ModelFamily::kLogRegL1:
      return "logreg-l1";
    case ModelFamily::kKernelSvm:
      return "kernel-svm";
    case ModelFamily::kOneNn:
      return "1nn";
    case ModelFamily::kMlp:
      return "mlp";
    case ModelFamily::kMajority:
      return "majority";
  }
  return "?";
}

Status Classifier::SaveBody(io::ModelWriter& /*writer*/) const {
  return Status::FailedPrecondition(
      name() + ": model family has no serialized form");
}

void Classifier::RecordTrainDomains(const DataView& train) {
  train_domain_sizes_.resize(train.num_features());
  for (size_t j = 0; j < train.num_features(); ++j) {
    train_domain_sizes_[j] = train.domain_size(j);
  }
}

uint8_t CodeClassifier::Predict(const DataView& view, size_t i) const {
  assert(MatchesTrainingFeatures(*this, view));
  uint8_t out;
  PredictCodes(GatherRow(view, i), 1, &out);
  return out;
}

std::vector<uint8_t> CodeClassifier::PredictAll(const DataView& view) const {
  assert(MatchesTrainingFeatures(*this, view));
  const CodeMatrix queries(view);
  const size_t n = queries.num_rows();
  std::vector<uint8_t> out(n);
  if (!PredictFansOut(n, PredictRowCost())) {
    PredictCodes(queries.codes().data(), n, out.data());
    return out;
  }
  parallel::ThreadPool& pool = parallel::DefaultPool();
  const size_t range = PredictRangeRows(n, pool.num_threads());
  pool.For((n + range - 1) / range, [&](size_t r) {
    const size_t begin = r * range;
    PredictCodes(queries.row(begin), std::min(range, n - begin),
                 out.data() + begin);
  });
  return out;
}

}  // namespace ml
}  // namespace hamlet
