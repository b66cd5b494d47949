// Section 5 analysis: mechanism diagnostics behind the headline results.
//
// The paper explains the robustness of high-capacity models intuitively:
// (a) for 1-NN/RBF-SVM, FK dominates distances when X_S is noise, and a
//     match on FK implies a match on the (implicit) X_R, so memorising FK
//     generalises over its closed domain;
// (b) for decision trees, FK is used heavily for partitioning because it
//     functionally determines Xr.
// This bench quantifies both claims on Scenario OneXr: the fraction of
// test queries whose nearest neighbour shares their FK (and the accuracy
// conditioned on that event), and the fraction of internal tree nodes
// testing FK, as the tuple ratio varies.

#include <cstdio>

#include "bench_util.h"
#include "hamlet/data/code_matrix.h"
#include "hamlet/ml/knn/one_nn.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "hamlet/synth/onexr.h"

namespace {

using namespace hamlet;

void NearestNeighbourFkMatch() {
  std::printf("--- (a) 1-NN under NoJoin: FK-match rate of the nearest "
              "neighbour ---\n");
  std::printf("%-8s %-12s %-14s %-16s %-16s\n", "nR", "tuple-ratio",
              "fk-match-rate", "acc|fk-match", "acc|no-match");
  const std::vector<size_t> nrs = bench::IsFullMode()
                                      ? std::vector<size_t>{10, 40, 100, 250, 500}
                                      : std::vector<size_t>{10, 100, 500};
  for (size_t nr : nrs) {
    synth::OneXrConfig cfg;
    cfg.ns = 1000;
    cfg.nr = nr;
    cfg.seed = 424;
    StarSchema star = synth::GenerateOneXr(cfg);
    Result<core::PreparedData> prepared = core::Prepare(star, 425);
    if (!prepared.ok()) {
      std::printf("prepare(nR=%zu) failed: %s\n", nr,
                  prepared.status().ToString().c_str());
      bench::ReportFailure();
      continue;
    }
    const core::PreparedData& p = prepared.value();
    const auto features =
        core::SelectVariant(p.data, core::FeatureVariant::kNoJoin);
    SplitViews views = MakeSplitViews(p.data, p.split, features);

    ml::OneNearestNeighbor knn;
    if (!knn.Fit(views.train).ok()) {
      bench::ReportFailure();
      continue;
    }
    // FK is the last NoJoin feature (home features come first).
    size_t fk_j = features.size();
    for (size_t j = 0; j < features.size(); ++j) {
      if (p.data.feature_spec(features[j]).role ==
          FeatureRole::kForeignKey) {
        fk_j = j;
      }
    }
    // One scan per test row: the neighbour gives both the FK match and
    // the 1-NN prediction (its training label).
    const CodeMatrix test(views.test);
    size_t match = 0, match_correct = 0, nomatch = 0, nomatch_correct = 0;
    for (size_t i = 0; i < test.num_rows(); ++i) {
      const size_t nn = knn.NearestIndexOfCodes(test.row(i));
      const bool fk_equal = test.at(i, fk_j) == views.train.feature(nn, fk_j);
      const bool correct = views.train.label(nn) == test.label(i);
      if (fk_equal) {
        ++match;
        match_correct += correct;
      } else {
        ++nomatch;
        nomatch_correct += correct;
      }
    }
    const double n_test = static_cast<double>(views.test.num_rows());
    std::printf("%-8zu %-12.1f %-14.3f %-16.3f %-16.3f\n", nr,
                0.5 * static_cast<double>(cfg.ns) / static_cast<double>(nr),
                match / n_test,
                match == 0 ? 0.0 : static_cast<double>(match_correct) / match,
                nomatch == 0
                    ? 0.0
                    : static_cast<double>(nomatch_correct) / nomatch);
  }
  std::printf(
      "\nExpected: the FK-match rate falls as nR grows (fewer training\n"
      "rows per FK value); accuracy conditioned on an FK match stays near\n"
      "1-p while accuracy without a match decays toward chance — the\n"
      "paper's explanation of 1-NN's instability at low tuple ratios.\n\n");
}

void TreeFkUsage() {
  std::printf("--- (b) decision tree: fraction of internal nodes testing "
              "FK ---\n");
  std::printf("%-8s %-14s %-14s\n", "nR", "JoinAll", "NoJoin");
  const std::vector<size_t> nrs = bench::IsFullMode()
                                      ? std::vector<size_t>{10, 40, 100, 250}
                                      : std::vector<size_t>{10, 100, 250};
  for (size_t nr : nrs) {
    std::printf("%-8zu", nr);
    for (auto variant : {core::FeatureVariant::kJoinAll,
                         core::FeatureVariant::kNoJoin}) {
      synth::OneXrConfig cfg;
      cfg.ns = 1000;
      cfg.nr = nr;
      cfg.seed = 626;
      StarSchema star = synth::GenerateOneXr(cfg);
      Result<core::PreparedData> prepared = core::Prepare(star, 627);
      if (!prepared.ok()) {
        std::printf("prepare(nR=%zu) failed: %s\n", nr,
                    prepared.status().ToString().c_str());
        bench::ReportFailure();
        continue;
      }
      const core::PreparedData& p = prepared.value();
      const auto features = core::SelectVariant(p.data, variant);
      SplitViews views = MakeSplitViews(p.data, p.split, features);
      ml::DecisionTree tree({.minsplit = 10, .cp = 0.001});
      if (!tree.Fit(views.train).ok()) {
        bench::ReportFailure();
        continue;
      }
      const auto use = tree.FeatureUseCounts();
      size_t fk_nodes = 0, total = 0;
      for (size_t j = 0; j < use.size(); ++j) {
        total += use[j];
        if (p.data.feature_spec(features[j]).role ==
            FeatureRole::kForeignKey) {
          fk_nodes += use[j];
        }
      }
      std::printf(" %-14.3f",
                  total == 0 ? 0.0
                             : static_cast<double>(fk_nodes) /
                                   static_cast<double>(total));
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected: FK dominates the partitioning in both variants (the\n"
      "paper inspected the fitted rpart trees and found \"FK was used\n"
      "heavily ... seldom was a feature from XR used\").\n");
}

}  // namespace

int main() {
  bench::PrintHeader("Section 5 analysis: FK-match and FK-usage diagnostics");
  NearestNeighbourFkMatch();
  TreeFkUsage();
  return bench::ExitCode();
}
