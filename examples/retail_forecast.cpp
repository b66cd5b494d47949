// Retail sales forecasting with FK domain compression (paper §6.1).
//
// A Walmart-style scenario: department-level sales joined with stores and
// economic indicators. The store FK domain is large enough to make the
// learned tree unreadable, so we compress it with the supervised
// sort-based method and show (a) the accuracy is retained and (b) the tree
// becomes small enough to print.
//
// Run: ./example_retail_forecast

#include <cstdio>

#include "hamlet/core/experiment.h"
#include "hamlet/core/fk_compression.h"
#include "hamlet/core/variants.h"
#include "hamlet/ml/metrics.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "hamlet/ml/tree/tree_printer.h"
#include "hamlet/synth/realworld.h"

namespace {

/// Prints the Status of a failed step; true when `st` is an error.
bool Failed(const char* step, const hamlet::Status& st) {
  if (st.ok()) return false;
  std::printf("%s failed: %s\n", step, st.ToString().c_str());
  return true;
}

}  // namespace

int main() {
  using namespace hamlet;

  auto spec = synth::RealWorldSpecByName("Walmart", 0.5);
  if (Failed("spec lookup", spec.status())) return 1;
  StarSchema star = synth::GenerateRealWorld(spec.value());
  Result<core::PreparedData> prepared = core::Prepare(
      star, 21, synth::RealWorldJoinOptions(spec.value()));
  if (Failed("prepare", prepared.status())) return 1;
  core::PreparedData& p = prepared.value();

  // Baseline: NoJoin tree on the raw FK domains.
  const auto nojoin = core::SelectVariant(p.data, core::FeatureVariant::kNoJoin);
  SplitViews views = MakeSplitViews(p.data, p.split, nojoin);
  ml::DecisionTree raw_tree({.minsplit = 10, .cp = 0.001});
  if (Failed("tree fit", raw_tree.Fit(views.train))) return 1;
  std::printf("Raw FK domains:    accuracy=%.4f, tree nodes=%zu\n",
              ml::Accuracy(raw_tree, views.test), raw_tree.num_nodes());

  // Compress every FK column to 8 buckets with the supervised method.
  Dataset compressed = p.data;
  for (uint32_t col : core::ForeignKeyColumns(compressed)) {
    DataView train_col(&compressed, p.split.train, {col});
    Result<core::DomainMapping> map =
        core::BuildSortedEntropyMapping(train_col, 0, 8);
    if (Failed("compression", map.status())) return 1;
    if (Failed("compression",
               core::ApplyMapping(compressed, col, map.value()))) {
      return 1;
    }
  }
  SplitViews cviews = MakeSplitViews(compressed, p.split,
                                     core::SelectVariant(
                                         compressed,
                                         core::FeatureVariant::kNoJoin));
  ml::DecisionTree small_tree({.minsplit = 10, .cp = 0.001});
  if (Failed("tree fit", small_tree.Fit(cviews.train))) return 1;
  std::printf("Budget-8 domains:  accuracy=%.4f, tree nodes=%zu\n\n",
              ml::Accuracy(small_tree, cviews.test),
              small_tree.num_nodes());

  // The §6.1 payoff: the compressed tree is small enough to read.
  std::printf("%s\n", ml::PrintTree(small_tree, cviews.train, 4).c_str());
  std::printf("%s\n",
              ml::PrintFeatureUsage(small_tree, cviews.train).c_str());
  return 0;
}
