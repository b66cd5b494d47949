// Shared helpers for the CodeMatrix parity harness (code_matrix_test.cc):
// a deterministic synthetic dataset, scrambled composed views, one view
// row's codes, a dataset round-trip through CodeMatrix, the classifier
// roster, and the per-classifier parity assertions between the per-row
// predict path and the dense CodeMatrix batch path.

#ifndef HAMLET_TESTS_PARITY_UTIL_H_
#define HAMLET_TESTS_PARITY_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "hamlet/common/parallel.h"
#include "hamlet/common/rng.h"
#include "hamlet/data/code_matrix.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/view.h"
#include "hamlet/ml/ann/mlp.h"
#include "hamlet/ml/classifier.h"
#include "hamlet/ml/knn/one_nn.h"
#include "hamlet/ml/linear/logistic_regression.h"
#include "hamlet/ml/majority.h"
#include "hamlet/ml/metrics.h"
#include "hamlet/ml/nb/naive_bayes.h"
#include "hamlet/ml/svm/svm.h"
#include "hamlet/ml/tree/decision_tree.h"

namespace hamlet {
namespace test {

/// Sets (or, with nullptr, unsets) an environment variable and restores
/// the prior state on destruction. Base guard for every HAMLET_* knob
/// the tests pin (thread counts, SMO cache budget, ...).
class ScopedEnvVar {
 public:
  ScopedEnvVar(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value == nullptr) {
      unsetenv(name);
    } else {
      setenv(name, value, 1);
    }
  }
  ~ScopedEnvVar() {
    if (had_old_) {
      setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

/// Sets HAMLET_THREADS and rebuilds the default pool; restores the prior
/// value (and rebuilds again) on destruction. Shared by this harness and
/// parallel_test.cc: the PR 2 determinism tests and the parity tests both
/// pin results at explicit thread counts.
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* value)
      : env_("HAMLET_THREADS", value) {
    parallel::ResetDefaultPoolForTesting();
  }
  ~ScopedThreads() { parallel::ResetDefaultPoolForTesting(); }

 private:
  ScopedEnvVar env_;
};

/// Deterministic synthetic dataset: one column per entry of `domains`
/// (roles cycling home / foreign-key / foreign), codes drawn uniformly
/// from the seeded RNG, and labels correlated with feature 0 plus 10%
/// noise so every learner has signal to fit.
inline Dataset MakeParityDataset(size_t num_rows,
                                 const std::vector<uint32_t>& domains,
                                 uint64_t seed) {
  std::vector<FeatureSpec> specs;
  specs.reserve(domains.size());
  for (size_t j = 0; j < domains.size(); ++j) {
    FeatureSpec spec;
    spec.name = "f" + std::to_string(j);
    spec.domain_size = domains[j];
    spec.role = j % 3 == 0   ? FeatureRole::kHome
                : j % 3 == 1 ? FeatureRole::kForeignKey
                             : FeatureRole::kForeign;
    spec.dim_index = spec.role == FeatureRole::kHome ? -1 : 0;
    specs.push_back(std::move(spec));
  }
  Dataset data(std::move(specs));
  Rng rng(seed);
  std::vector<uint32_t> codes(domains.size());
  for (size_t i = 0; i < num_rows; ++i) {
    for (size_t j = 0; j < domains.size(); ++j) {
      codes[j] = static_cast<uint32_t>(rng.UniformInt(domains[j]));
    }
    uint8_t label = domains.empty()
                        ? static_cast<uint8_t>(rng.Bernoulli(0.5))
                        : static_cast<uint8_t>(2 * codes[0] >= domains[0]);
    if (rng.Bernoulli(0.1)) label = 1 - label;
    data.AppendRowUnchecked(codes, label);
  }
  return data;
}

/// Train/test views over `data` that exercise the view indirection the
/// CodeMatrix materialisation depends on: a shuffled row order, split
/// into train and test, with a non-identity feature order.
struct ParityViews {
  DataView train;
  DataView test;
};

inline ParityViews MakeParityViews(const Dataset& data, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> order(data.num_rows());
  std::iota(order.begin(), order.end(), 0u);
  rng.Shuffle(order);

  // Reversed feature order: parity must hold for any column permutation.
  std::vector<uint32_t> features(data.num_features());
  std::iota(features.begin(), features.end(), 0u);
  std::reverse(features.begin(), features.end());

  const auto cut = order.begin() + static_cast<std::ptrdiff_t>(
                                       (data.num_rows() * 2) / 3);
  ParityViews views;
  views.train = DataView(&data, std::vector<uint32_t>(order.begin(), cut),
                         features);
  views.test = DataView(&data, std::vector<uint32_t>(cut, order.end()),
                        std::move(features));
  return views;
}

/// View-row i's codes in view-feature order: one query row for the
/// learners' `...OfCodes` score helpers.
inline std::vector<uint32_t> RowCodes(const DataView& view, size_t i) {
  std::vector<uint32_t> out(view.num_features());
  for (size_t j = 0; j < out.size(); ++j) out[j] = view.feature(i, j);
  return out;
}

/// Rebuilds a standalone Dataset from a view's CodeMatrix snapshot,
/// preserving feature specs (names, domains, roles). A model fit on the
/// round-trip dataset must behave exactly like one fit on the view.
inline Dataset RoundTripDataset(const DataView& view) {
  const CodeMatrix m(view);
  std::vector<FeatureSpec> specs;
  specs.reserve(view.num_features());
  for (size_t j = 0; j < view.num_features(); ++j) {
    specs.push_back(view.feature_spec(j));
  }
  Dataset data(std::move(specs));
  data.Reserve(m.num_rows());
  std::vector<uint32_t> codes(m.num_features());
  for (size_t i = 0; i < m.num_rows(); ++i) {
    for (size_t j = 0; j < m.num_features(); ++j) codes[j] = m.at(i, j);
    data.AppendRowUnchecked(codes, m.label(i));
  }
  return data;
}

/// One classifier family in the parity roster. The factory builds a fresh
/// (unfitted) instance; configurations are small enough for test speed.
struct ParityLearner {
  std::string name;
  std::function<std::unique_ptr<ml::Classifier>()> make;
};

inline std::vector<ParityLearner> ParityLearners() {
  std::vector<ParityLearner> learners;
  learners.push_back({"dt-gini", [] {
                        return std::make_unique<ml::DecisionTree>();
                      }});
  learners.push_back({"1nn", [] {
                        return std::make_unique<ml::OneNearestNeighbor>();
                      }});
  learners.push_back({"svm-linear", [] {
                        ml::SvmConfig config;
                        config.kernel.type = ml::KernelType::kLinear;
                        return std::make_unique<ml::KernelSvm>(config);
                      }});
  learners.push_back({"svm-rbf", [] {
                        ml::SvmConfig config;
                        config.kernel.type = ml::KernelType::kRbf;
                        config.kernel.gamma = 0.1;
                        return std::make_unique<ml::KernelSvm>(config);
                      }});
  learners.push_back({"naive-bayes", [] {
                        return std::make_unique<ml::NaiveBayes>();
                      }});
  learners.push_back({"logreg-l1", [] {
                        ml::LogisticRegressionConfig config;
                        config.nlambda = 5;
                        config.maxit = 50;
                        return std::make_unique<ml::LogisticRegressionL1>(
                            config);
                      }});
  learners.push_back({"ann-mlp", [] {
                        ml::MlpConfig config;
                        config.hidden_sizes = {8, 4};
                        config.epochs = 2;
                        return std::make_unique<ml::Mlp>(config);
                      }});
  learners.push_back({"majority", [] {
                        return std::make_unique<ml::MajorityClassifier>();
                      }});
  return learners;
}

/// Asserts the dense batch path (PredictAll, CodeMatrix inside the hot
/// learners) is bit-identical to the per-row DataView path (Predict), and
/// that Accuracy matches the per-row hit count. Returns the
/// predictions for cross-thread-count comparisons.
inline std::vector<uint8_t> ExpectPredictParity(const ml::Classifier& model,
                                                const DataView& view) {
  const std::vector<uint8_t> batch = model.PredictAll(view);
  EXPECT_EQ(batch.size(), view.num_rows());
  std::vector<uint8_t> per_row(view.num_rows());
  size_t hits = 0;
  for (size_t i = 0; i < view.num_rows(); ++i) {
    per_row[i] = model.Predict(view, i);
    hits += per_row[i] == view.label(i);
  }
  EXPECT_EQ(batch, per_row) << model.name();
  if (view.num_rows() > 0) {
    const double expected_acc =
        static_cast<double>(hits) / static_cast<double>(view.num_rows());
    EXPECT_DOUBLE_EQ(ml::Accuracy(model, view), expected_acc)
        << model.name();
  }
  return batch;
}

}  // namespace test
}  // namespace hamlet

#endif  // HAMLET_TESTS_PARITY_UTIL_H_
