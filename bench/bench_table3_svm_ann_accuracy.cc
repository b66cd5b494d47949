// Tables 3 and 6: holdout test accuracy (Table 3) and training accuracy
// (Table 6) of the three SVMs (linear, quadratic polynomial, RBF), the MLP
// ANN, Naive Bayes with backward selection, and L1 logistic regression,
// comparing JoinAll vs NoJoin on the seven datasets. Both tables come
// from one set of fits.
//
// Paper claims to check: the relative behaviour of NoJoin vs JoinAll is
// the same for high-capacity and linear models; on Yelp the drop is
// *smaller* for the RBF-SVM/ANN than for NB/logistic regression. In
// training accuracy (§5.1) NoJoin does not change the generalisation gap
// — train accuracies track JoinAll within each model family.

#include "bench_tables.h"

int main() {
  const hamlet::bench::CounterScope counters;
  using namespace hamlet;
  using core::FeatureVariant;
  using core::ModelKind;
  const std::vector<bench::TableColumn> columns = {
      {ModelKind::kSvmLinear, FeatureVariant::kJoinAll},
      {ModelKind::kSvmLinear, FeatureVariant::kNoJoin},
      {ModelKind::kSvmPoly, FeatureVariant::kJoinAll},
      {ModelKind::kSvmPoly, FeatureVariant::kNoJoin},
      {ModelKind::kSvmRbf, FeatureVariant::kJoinAll},
      {ModelKind::kSvmRbf, FeatureVariant::kNoJoin},
      {ModelKind::kAnnMlp, FeatureVariant::kJoinAll},
      {ModelKind::kAnnMlp, FeatureVariant::kNoJoin},
      {ModelKind::kNaiveBayesBackward, FeatureVariant::kJoinAll},
      {ModelKind::kNaiveBayesBackward, FeatureVariant::kNoJoin},
      {ModelKind::kLogRegL1, FeatureVariant::kJoinAll},
      {ModelKind::kLogRegL1, FeatureVariant::kNoJoin},
  };

  bench::PrintHeader(
      "Table 3: SVMs + ANN + Naive Bayes + logistic regression, "
      "holdout test accuracy");
  const std::vector<bench::TrainAccuracyRow> train =
      bench::RunAccuracyTable(columns);
  std::printf(
      "\nExpected shape (paper Table 3): NoJoin within ~0.01 of JoinAll\n"
      "everywhere except Yelp (and LastFM/Books for the RBF-SVM); the\n"
      "Yelp drop is smaller for RBF-SVM/ANN (~0.01) than for NB/LR "
      "(~0.03).\n\n");

  bench::PrintHeader(
      "Table 6: SVMs + ANN + Naive Bayes + logistic regression, "
      "training accuracy");
  bench::PrintTrainAccuracyTable(columns, train);
  std::printf(
      "\nExpected shape (paper Table 6): JoinAll ~ NoJoin train accuracy\n"
      "within each model family; kernel SVMs overfit more than linear.\n");
  bench::PrintSvmCacheStats(counters);
  bench::PrintPackedStats(counters);
  return bench::ExitCode();
}
