// Validation-set grid search over hyper-parameters (paper §3.2).
//
// Every model family in the study is tuned by exhaustive grid search on the
// 25% validation split. Each configuration is fit once on the training
// split; the winning fit itself is returned and evaluated on the holdout.

#ifndef HAMLET_ML_GRID_SEARCH_H_
#define HAMLET_ML_GRID_SEARCH_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hamlet/common/status.h"
#include "hamlet/data/view.h"
#include "hamlet/ml/classifier.h"

namespace hamlet {
namespace ml {

/// One hyper-parameter assignment, by name.
using ParamMap = std::map<std::string, double>;

/// Cartesian product of named axes.
class ParamGrid {
 public:
  ParamGrid() = default;

  /// Adds an axis; returns *this for chaining.
  ParamGrid& Add(std::string name, std::vector<double> values);

  /// All assignments in deterministic (row-major) order. An empty grid
  /// yields exactly one empty assignment.
  std::vector<ParamMap> Enumerate() const;

  size_t num_axes() const { return axes_.size(); }

 private:
  std::vector<std::pair<std::string, std::vector<double>>> axes_;
};

/// Builds a model for a hyper-parameter assignment.
using ModelFactory =
    std::function<std::unique_ptr<Classifier>(const ParamMap&)>;

/// Outcome of a grid search.
struct GridSearchResult {
  ParamMap best_params;
  double best_val_accuracy = 0.0;
  std::unique_ptr<Classifier> best_model;  // the winning fit itself
  size_t configurations_tried = 0;
};

/// Fits one model per grid point on `train`, scores on `val`, returns the
/// best (ties: first in enumeration order, keeping results deterministic).
/// Grid points fit and score concurrently on the parallel pool
/// (HAMLET_THREADS); the winner and any error (lowest-index failure) are
/// bit-identical at every thread count. The factory is called exactly once
/// per point, and at most one model per pool worker plus the running best
/// are alive at once.
Result<GridSearchResult> GridSearch(const ModelFactory& factory,
                                    const ParamGrid& grid,
                                    const DataView& train,
                                    const DataView& val);

/// Convenience: value of `key` in `params`, or `fallback` when absent.
double ParamOr(const ParamMap& params, const std::string& key,
               double fallback);

}  // namespace ml
}  // namespace hamlet

#endif  // HAMLET_ML_GRID_SEARCH_H_
