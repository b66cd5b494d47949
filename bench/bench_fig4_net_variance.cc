// Figure 4: average net variance (Domingos decomposition) for the Figure 3
// experiments — 1-NN (A) and RBF-SVM (B) in Scenario OneXr, varying n_R.
//
// Paper claim to check: the RBF-SVM's NoJoin error deviation at low tuple
// ratios is driven by net variance (extra overfitting), mirroring the
// linear-model analysis in Kumar et al.; the 1-NN's net variance is
// non-monotonic (its instability artifact).

#include <cstdio>

#include "bench_util.h"
#include "hamlet/synth/onexr.h"

int main() {
  using namespace hamlet;
  bench::PrintHeader(
      "Figure 4: average net variance in OneXr, 1-NN (A) and RBF-SVM (B)");
  const std::vector<double> nrs =
      bench::IsFullMode() ? std::vector<double>{1, 10, 40, 100, 250, 500, 1000}
                          : std::vector<double>{10, 40, 170, 500};
  auto onexr = [](double nr, size_t run) {
    synth::OneXrConfig cfg;
    cfg.nr = static_cast<size_t>(nr);
    cfg.seed = 9911 + 131 * run;
    return synth::GenerateOneXr(cfg);
  };

  bench::RunSimulationPanel("(A) 1-NN", "nR", nrs, bench::SimModel::kOneNn,
                            onexr, /*net_variance=*/true);
  bench::RunSimulationPanel("(B) RBF-SVM", "nR", nrs,
                            bench::SimModel::kSvmRbf, onexr,
                            /*net_variance=*/true);

  std::printf(
      "Expected shape (paper Fig. 4): NoJoin net variance rises with nR for\n"
      "the RBF-SVM (the extra overfitting); 1-NN's curve is non-monotonic.\n");
  return bench::ExitCode();
}
