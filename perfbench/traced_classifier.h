// A delegating ml::Classifier that times its inner model's Fit and
// PredictAll as spans. The benchmark installs it in the factory it hands
// to ml::GridSearch, around the Monte-Carlo learners, and around the
// model the socket server scores with; predictions pass through
// untouched, so results stay bit-identical to the unwrapped model.

#ifndef PERFBENCH_TRACED_CLASSIFIER_H_
#define PERFBENCH_TRACED_CLASSIFIER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hamlet/ml/classifier.h"
#include "hamlet/ml/grid_search.h"
#include "trace.h"

namespace perfbench {

/// Span names for one layer's Fit and PredictAll ("ml.svm.fit", ...).
struct LayerSpans {
  const char* fit;
  const char* predict;
};

class TracedClassifier : public hamlet::ml::Classifier {
 public:
  TracedClassifier(std::unique_ptr<hamlet::ml::Classifier> inner,
                   LayerSpans spans)
      : inner_(std::move(inner)), spans_(spans) {
    RestoreTrainDomains(inner_->train_domain_sizes());
  }

  hamlet::Status Fit(const hamlet::DataView& train) override {
    ScopedSpan span(spans_.fit);
    span.set_rows(train.num_rows());
    hamlet::Status st = inner_->Fit(train);
    RestoreTrainDomains(inner_->train_domain_sizes());
    return st;
  }

  uint8_t Predict(const hamlet::DataView& view, size_t i) const override {
    return inner_->Predict(view, i);
  }

  std::vector<uint8_t> PredictAll(
      const hamlet::DataView& view) const override {
    ScopedSpan span(spans_.predict);
    span.set_rows(view.num_rows());
    return inner_->PredictAll(view);
  }

  std::string name() const override { return inner_->name(); }
  hamlet::ml::ModelFamily family() const override { return inner_->family(); }
  hamlet::Status SaveBody(hamlet::io::ModelWriter& writer) const override {
    return inner_->SaveBody(writer);
  }

 private:
  std::unique_ptr<hamlet::ml::Classifier> inner_;
  LayerSpans spans_;
};

/// Wraps every model `factory` builds.
inline hamlet::ml::ModelFactory TracedFactory(hamlet::ml::ModelFactory factory,
                                              LayerSpans spans) {
  return [factory = std::move(factory),
          spans](const hamlet::ml::ParamMap& params)
             -> std::unique_ptr<hamlet::ml::Classifier> {
    std::unique_ptr<hamlet::ml::Classifier> inner = factory(params);
    if (inner == nullptr) return nullptr;
    return std::make_unique<TracedClassifier>(std::move(inner), spans);
  };
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_CLASSIFIER_H_
