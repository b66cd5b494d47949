// Kernel SVM classifier (C-SVC) built on the SMO solver.
//
// Covers the paper's three SVM variants: linear, quadratic polynomial and
// Gaussian RBF. Prediction uses only the support vectors. Labels {0,1} map
// to {-1,+1} internally.

#ifndef HAMLET_ML_SVM_SVM_H_
#define HAMLET_ML_SVM_SVM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hamlet/data/code_matrix.h"
#include "hamlet/data/packed_code_matrix.h"
#include "hamlet/ml/classifier.h"
#include "hamlet/ml/svm/kernel.h"
#include "hamlet/ml/svm/smo.h"

namespace hamlet {
namespace ml {

/// Hyper-parameters; defaults match the paper's grid midpoints.
struct SvmConfig {
  KernelConfig kernel;
  double C = 1.0;
  double tolerance = 1e-3;
  size_t max_iterations = 20000;
  /// Optional cap on training rows (0 = use all). When set, a
  /// deterministic stratified-ish prefix subsample keeps the quadratic
  /// SMO solve affordable on the larger simulated datasets; the paper's
  /// qualitative comparisons are unaffected because every variant
  /// (JoinAll/NoJoin/NoFK) sees the same subsample.
  size_t max_train_rows = 0;
  /// Kernel-row cache budget in bytes for the SMO solve (see
  /// SmoConfig::cache_bytes). 0 = HAMLET_SMO_CACHE_MB or the 64 MiB
  /// default. The solve is bit-identical at any budget; only speed and
  /// memory change. Tests pin tiny budgets through this knob.
  size_t smo_cache_bytes = 0;
};

/// C-SVC with categorical-native kernels.
class KernelSvm : public CodeClassifier {
 public:
  explicit KernelSvm(SvmConfig config = {});

  Status Fit(const DataView& train) override;
  /// The kernel sum compares every packed word of every support vector.
  size_t PredictRowCost() const override { return sv_packed_.size(); }
  std::string name() const override;

  ModelFamily family() const override { return ModelFamily::kKernelSvm; }
  /// Serializes the kernel config plus the fitted decision function
  /// (support-vector codes, alpha*y coefficients, bias); solver-only
  /// knobs (C, tolerance, cache budget) are not part of the model.
  Status SaveBody(io::ModelWriter& writer) const override;
  static Result<std::unique_ptr<KernelSvm>> LoadBody(
      io::ModelReader& reader, const std::vector<uint32_t>& domains);

  /// Signed decision values f(x) of `rows` queries (row-major,
  /// num_features codes each) into out[0, rows). Rows are scored four
  /// at a time and the tail one at a time; every value has the bits of
  /// the one-row sum: bias first, then the support vectors in order.
  /// Adds the call's packed evaluations to the counters once.
  void DecisionValuesOfCodes(const uint32_t* codes, size_t rows,
                             double* out) const;

  /// Signed decision value f(x) for a query of num_features codes.
  double DecisionValueOfCodes(const uint32_t* query) const {
    double f;
    DecisionValuesOfCodes(query, 1, &f);
    return f;
  }

  size_t num_support_vectors() const { return sv_rows_.size() / (d_ ? d_ : 1); }

  /// The fitted decision function f(x) = bias + sum_s coeff[s] * K(sv_s, x):
  /// support-vector codes (row-major, num_features each), their alpha*y
  /// coefficients and the bias, in the order scoring sums them.
  const std::vector<uint32_t>& support_vector_codes() const {
    return sv_rows_;
  }
  const std::vector<double>& coefficients() const { return sv_coeff_; }
  double bias() const { return bias_; }
  bool converged() const { return converged_; }

 private:
  /// The constant label of a single-class fit, else 1 where the decision
  /// value is >= 0, scored through DecisionValuesOfCodes 64 rows at a
  /// time.
  void PredictCodes(const uint32_t* codes, size_t rows,
                    uint8_t* out) const override;
  /// Rebuilds the packed support-vector slab (sv_layout_ / sv_packed_)
  /// from sv_rows_ under the canonical layout for `domains`, and the
  /// kernel-by-match-count table; called at the end of Fit and LoadBody.
  /// Queries are packed into the same layout at prediction time.
  void PackSupportVectors(const std::vector<uint32_t>& domains);
  /// Queries scored together by DecisionValuesOfPacked.
  static constexpr size_t kScoreBlockRows = 4;
  /// Decision values of kRows queries already packed under sv_layout_
  /// (query r at queries + r * words_per_row): one match-count pass per
  /// query over the SV slab, then one pass over the support vectors that
  /// carries kRows independent sums, each f = bias, then
  /// f += coeff[s] * table[count[s]] in SV order. The kRows = 1 case is
  /// the one-row score. Adds nothing to the packed eval counters.
  template <size_t kRows>
  void DecisionValuesOfPacked(const uint64_t* queries, double* f) const;

  SvmConfig config_;
  bool fitted_ = false;
  size_t d_ = 0;
  std::vector<uint32_t> sv_rows_;    // support vectors, row-major codes
  std::vector<double> sv_coeff_;     // alpha_i * y_i per support vector
  simd::PackedLayout sv_layout_;     // packing layout shared with queries
  std::vector<uint64_t> sv_packed_;  // sv_rows_ packed, words_per_row each
  std::vector<double> sv_kernel_by_matches_;  // KernelValuesByMatches
  double bias_ = 0.0;
  uint8_t constant_prediction_ = 0;  // used when training was single-class
  bool is_constant_ = false;
  bool converged_ = false;
};

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_SVM_SVM_H_
