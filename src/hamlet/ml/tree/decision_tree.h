// CART decision tree for categorical features and a binary target.
//
// Splits are binary category-subset splits found with Breiman's
// response-ordering trick: at a node, the categories of a feature are
// sorted by P(Y=1 | category) and only the K-1 ordered prefix partitions
// are scanned — optimal for gini/entropy with a binary target and the only
// tractable scheme for foreign-key features with thousands of values.
//
// Pre-pruning follows rpart semantics (§3.2 of the paper): `minsplit` is
// the minimum node size to attempt a split, and a split must reduce the
// tree's risk by at least `cp` × (root risk) to be kept.
//
// Foreign-key values that never occur in training may still appear at test
// time (§6.2), where the R packages crash. Here a code never seen at a
// node follows that node's branch with more training rows, so prediction
// stays total. External smoothing (core/fk_smoothing.h) rewrites test
// codes before prediction instead.

#ifndef HAMLET_ML_TREE_DECISION_TREE_H_
#define HAMLET_ML_TREE_DECISION_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hamlet/data/code_matrix.h"
#include "hamlet/ml/classifier.h"
#include "hamlet/ml/tree/criterion.h"

namespace hamlet {
namespace ml {

/// Hyper-parameters. Defaults match the paper's grid midpoints.
struct DecisionTreeConfig {
  SplitCriterion criterion = SplitCriterion::kGini;
  /// Minimum observations in a node for a split to be attempted (rpart).
  size_t minsplit = 10;
  /// Complexity parameter: required risk improvement as a fraction of the
  /// root risk (rpart). 0 grows the tree until pure/minsplit.
  double cp = 0.01;
  /// Hard depth cap (guards pathological growth on huge FK domains).
  size_t max_depth = 30;
};

/// A fitted tree node. Leaves have feature == -1.
struct TreeNode {
  int feature = -1;             ///< view-feature index tested at this node
  std::vector<uint8_t> goes_left;  ///< per-code routing (size = domain)
  std::vector<uint8_t> code_seen;  ///< per-code: occurred at this node
  int left = -1;
  int right = -1;
  int majority_child = -1;      ///< branch holding more training rows
  uint8_t prediction = 0;       ///< majority label of the node
  uint32_t count = 0;           ///< training rows reaching the node
  uint32_t pos_count = 0;       ///< of which labeled 1
  uint32_t depth = 0;
};

/// CART learner/predictor.
class DecisionTree : public CodeClassifier {
 public:
  explicit DecisionTree(DecisionTreeConfig config = {});

  Status Fit(const DataView& train) override;
  /// A walk visits at most depth() + 1 nodes.
  size_t PredictRowCost() const override { return depth_ + 1; }
  std::string name() const override;

  ModelFamily family() const override { return ModelFamily::kDecisionTree; }
  /// Serializes config + node arcs/leaves (format: docs/ARCHITECTURE.md).
  Status SaveBody(io::ModelWriter& writer) const override;
  /// Rebuilds a fitted tree from `reader`; `domains` is the per-feature
  /// domain metadata from the container header, used to validate the
  /// node routing tables.
  static Result<std::unique_ptr<DecisionTree>> LoadBody(
      io::ModelReader& reader, const std::vector<uint32_t>& domains);

  const DecisionTreeConfig& config() const { return config_; }
  const std::vector<TreeNode>& nodes() const { return nodes_; }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_leaves() const;
  size_t depth() const { return depth_; }

  /// How many internal nodes test each view-feature — the paper inspects
  /// this to show FK dominates the partitioning in scenario OneXr.
  std::vector<size_t> FeatureUseCounts() const;

 private:
  struct NodeStats;
  int BuildNode(const CodeMatrix& train, std::vector<uint32_t>& rows,
                size_t begin, size_t end, size_t depth, double root_risk);
  /// Walks each row to its leaf; an unfitted tree predicts 0.
  void PredictCodes(const uint32_t* codes, size_t rows,
                    uint8_t* out) const override;
  /// Walks one fitted row of codes to its leaf (the routing and
  /// unseen-code logic).
  uint8_t WalkCodes(const uint32_t* codes) const;
  /// Recomputes depth_ from the nodes (after Fit and LoadBody).
  void UpdateDepth();

  DecisionTreeConfig config_;
  std::vector<TreeNode> nodes_;
  int root_ = -1;
  size_t num_features_ = 0;
  size_t depth_ = 0;  ///< deepest node's depth; 0 before Fit
  // Scratch (valid during Fit only): per-feature per-code counters.
  std::vector<std::vector<uint32_t>> scratch_count_;
  std::vector<std::vector<uint32_t>> scratch_pos_;
};

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_TREE_DECISION_TREE_H_
