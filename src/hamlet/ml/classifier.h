// Common interface for all classifiers in hamlet.
//
// All models consume DataViews of categorical codes. A model trained on a
// view with feature subset F must be evaluated on views with the *same*
// feature subset (same underlying column ids, same order); this is how the
// JoinAll / NoJoin / NoFK variants stay comparable.

#ifndef HAMLET_ML_CLASSIFIER_H_
#define HAMLET_ML_CLASSIFIER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hamlet/common/parallel.h"
#include "hamlet/common/status.h"
#include "hamlet/common/attributes.h"
#include "hamlet/data/view.h"

namespace hamlet {

namespace io {
class ModelWriter;
class ModelReader;
}  // namespace io

namespace ml {

/// Stable on-disk tag of a serializable learner family. The numeric
/// values are part of the model file format (io/serialize.cc keys its
/// Load dispatch on them): never renumber, only append.
enum class ModelFamily : uint32_t {
  kUnsupported = 0,   ///< wrapper/meta models with no on-disk format
  kDecisionTree = 1,
  kNaiveBayes = 2,
  kLogRegL1 = 3,
  kKernelSvm = 4,
  kOneNn = 5,
  kMlp = 6,
  kMajority = 7,
};

/// Human-readable name for a ModelFamily ("decision-tree", ...).
const char* ModelFamilyName(ModelFamily family);

/// Estimated prediction work, in units of roughly one nanosecond (a tree
/// node visit, a per-feature table lookup, one packed 64-bit word
/// compared), below which PredictAll stays on the calling thread.
/// Waking the pool costs tens of microseconds, about as much as this
/// much work split four ways saves.
inline constexpr size_t kSerialPredictWork = size_t{1} << 16;

/// Per-row cost assumed by a learner with no estimate of its own: such
/// a learner fans out from 512 rows up.
inline constexpr size_t kDefaultPredictRowCost = kSerialPredictWork / 512;

/// True when `rows` rows at `row_cost` work units each reach
/// kSerialPredictWork, i.e. when PredictAll fans out.
inline bool PredictFansOut(size_t rows, size_t row_cost) {
  // rows * row_cost >= kSerialPredictWork, without the overflow.
  return row_cost > 0 &&
         rows >= (kSerialPredictWork + row_cost - 1) / row_cost;
}

/// Runs body(i) for every row index in [0, n): serially when the
/// estimated work n * row_cost is below kSerialPredictWork, where the
/// pool's wake-up would cost more than it saves, on the parallel pool
/// above it. `row_cost` is the learner's Classifier::PredictRowCost().
/// Results must be keyed by index, so the output is identical either
/// way. Row scoring belongs here rather than on a ThreadPool-level
/// cutoff: the pool cannot know per-index cost, and loops with
/// few-but-huge indices (grid points) must still fan out. Templated on
/// the callable so the serial path dispatches the concrete lambda
/// directly; the std::function type erasure is paid only once at the
/// ParallelFor boundary.
template <typename Body>
void ForEachPredictRow(size_t n, size_t row_cost, Body&& body) {
  if (!PredictFansOut(n, row_cost)) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  parallel::ParallelFor(n, body);
}

/// Abstract binary classifier over categorical feature vectors.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on `train`. Must be called before Predict.
  HAMLET_NODISCARD virtual Status Fit(const DataView& train) = 0;

  /// Predicts the label of row `i` of `view`. `view` must select the same
  /// feature columns as the training view.
  virtual uint8_t Predict(const DataView& view, size_t i) const = 0;

  /// Short human-readable model name ("dt-gini", "svm-rbf", ...).
  virtual std::string name() const = 0;

  /// Predicts every row of `view`. Rows are scored concurrently on the
  /// parallel pool (Predict is const) when the view holds enough work
  /// (ForEachPredictRow); out[i] is keyed by row index, so the result is
  /// identical at any thread count.
  ///
  /// The learners score through CodeClassifier, which materialises the
  /// view into one CodeMatrix instead; this per-row default serves
  /// wrappers that only delegate. Overrides must stay bit-identical to
  /// the per-row Predict path at any thread count
  /// (tests/code_matrix_test.cc enforces this).
  virtual std::vector<uint8_t> PredictAll(const DataView& view) const {
    std::vector<uint8_t> out(view.num_rows());
    ForEachPredictRow(out.size(), PredictRowCost(),
                      [&](size_t i) { out[i] = Predict(view, i); });
    return out;
  }

  /// Estimated cost of predicting one row of a fitted model, in
  /// kSerialPredictWork units; decides whether PredictAll fans out.
  virtual size_t PredictRowCost() const { return kDefaultPredictRowCost; }

  // --- Serialization (io/serialize.h wraps these in the versioned
  // container format; see docs/ARCHITECTURE.md, "The model format") ---

  /// On-disk family tag. kUnsupported (the default) means the model has
  /// no serialized form and SaveBody fails with FailedPrecondition;
  /// every concrete learner family overrides both.
  virtual ModelFamily family() const { return ModelFamily::kUnsupported; }

  /// Writes the fitted learner's body section (everything Predict needs,
  /// nothing the container header already carries). Called by
  /// io::SaveModel after the header; must only be called on a fitted
  /// model. The matching deserializer is the learner's static
  /// LoadBody(io::ModelReader&, const std::vector<uint32_t>& domains),
  /// which validates the body against the header's domain metadata.
  HAMLET_NODISCARD virtual Status SaveBody(io::ModelWriter& writer) const;

  /// Per-feature domain sizes of the training view, captured by every
  /// Fit via RecordTrainDomains. Serialized in the model header so a
  /// server can decode and validate raw request tuples without the
  /// training Dataset; empty before the first Fit.
  const std::vector<uint32_t>& train_domain_sizes() const {
    return train_domain_sizes_;
  }

  /// Restores the Fit-time domain metadata on a deserialized model
  /// (io::LoadModel reads it from the container header).
  void RestoreTrainDomains(std::vector<uint32_t> domain_sizes) {
    train_domain_sizes_ = std::move(domain_sizes);
  }

 protected:
  /// Snapshots `train`'s per-feature domain sizes; every learner's Fit
  /// calls this before returning OK.
  void RecordTrainDomains(const DataView& train);

 private:
  std::vector<uint32_t> train_domain_sizes_;
};

/// Rows per pool range when CodeClassifier::PredictAll fans out over
/// `rows` rows on a pool of `threads` threads: ParallelFor's chunk size,
/// several ranges per thread so the tail stays balanced.
inline size_t PredictRangeRows(size_t rows, size_t threads) {
  return std::max<size_t>(1, rows / (8 * threads));
}

/// A classifier that scores row-major codes: every learner's one scoring
/// entry point. A learner implements the PredictCodes hook; this layer
/// writes Predict (the hook on one gathered row) and PredictAll (one
/// CodeMatrix, then the hook) once for all of them, so the two paths
/// cannot drift apart.
class CodeClassifier : public Classifier {
 public:
  /// Gathers row `i` of `view` into a thread-local buffer and scores it.
  uint8_t Predict(const DataView& view, size_t i) const final;

  /// Materialises `view` into one CodeMatrix and scores it: with one
  /// PredictCodes call below PredictFansOut's work threshold, above it
  /// with one call per contiguous range of PredictRangeRows rows on the
  /// parallel pool.
  std::vector<uint8_t> PredictAll(const DataView& view) const final;

 protected:
  /// Writes the predicted label of each of `rows` rows to out[0, rows).
  /// Row r's codes are codes[r * d, (r + 1) * d), d the training view's
  /// feature count, in training feature order. Must be a pure function
  /// of each row, so any split of the rows gives the same labels.
  virtual void PredictCodes(const uint32_t* codes, size_t rows,
                            uint8_t* out) const = 0;
};

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_CLASSIFIER_H_
