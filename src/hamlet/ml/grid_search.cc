#include "hamlet/ml/grid_search.h"

#include "hamlet/common/mutex.h"
#include "hamlet/common/parallel.h"
#include "hamlet/common/thread_annotations.h"
#include "hamlet/ml/metrics.h"

namespace hamlet {
namespace ml {

ParamGrid& ParamGrid::Add(std::string name, std::vector<double> values) {
  axes_.emplace_back(std::move(name), std::move(values));
  return *this;
}

std::vector<ParamMap> ParamGrid::Enumerate() const {
  size_t total = 1;
  for (const auto& [name, values] : axes_) total *= values.size();
  std::vector<ParamMap> out;
  out.reserve(total);
  if (total == 0) return out;  // an empty axis annihilates the product
  // Odometer over the axes (last axis fastest) builds each assignment
  // exactly once instead of re-copying partial maps level by level.
  std::vector<size_t> digits(axes_.size(), 0);
  for (size_t a = 0; a < total; ++a) {
    ParamMap m;
    for (size_t k = 0; k < axes_.size(); ++k) {
      m.emplace(axes_[k].first, axes_[k].second[digits[k]]);
    }
    out.push_back(std::move(m));
    for (size_t k = axes_.size(); k-- > 0;) {
      if (++digits[k] < axes_[k].second.size()) break;
      digits[k] = 0;
    }
  }
  return out;
}

Result<GridSearchResult> GridSearch(const ModelFactory& factory,
                                    const ParamGrid& grid,
                                    const DataView& train,
                                    const DataView& val) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training view");
  }
  const std::vector<ParamMap> points = grid.Enumerate();

  // Every grid point fits and scores independently on the pool and offers
  // its model to a running best: higher validation accuracy wins, and on a
  // tie the lower enumeration index wins. That order is total, so the
  // winner is the one a serial scan would pick, bit-identical at any
  // thread count, and it is returned as fitted — no refit. At most one
  // model per worker plus the running best are alive at once.
  struct RunningBest {
    Mutex mu;
    double accuracy HAMLET_GUARDED_BY(mu) = -1.0;
    size_t index HAMLET_GUARDED_BY(mu) = 0;
    std::unique_ptr<Classifier> model HAMLET_GUARDED_BY(mu);
  } best;
  Status fit_status = parallel::ParallelForStatus(
      points.size(), [&](size_t i) -> Status {
        std::unique_ptr<Classifier> model = factory(points[i]);
        if (model == nullptr) {
          return Status::Internal("model factory returned null");
        }
        HAMLET_RETURN_IF_ERROR(model->Fit(train));
        const double accuracy =
            val.num_rows() > 0 ? Accuracy(*model, val) : 0.0;
        MutexLock lock(best.mu);
        if (accuracy > best.accuracy ||
            (accuracy == best.accuracy && i < best.index)) {
          best.accuracy = accuracy;
          best.index = i;
          best.model.swap(model);
        }
        // `model` now holds the loser; it is freed after `lock` releases.
        return Status::OK();
      });
  if (!fit_status.ok()) return fit_status;

  GridSearchResult result;
  result.configurations_tried = points.size();
  MutexLock lock(best.mu);
  result.best_val_accuracy = best.accuracy;
  if (best.model == nullptr) return result;  // empty axis, no points
  result.best_params = points[best.index];
  result.best_model = std::move(best.model);
  return result;
}

double ParamOr(const ParamMap& params, const std::string& key,
               double fallback) {
  auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

}  // namespace ml
}  // namespace hamlet
