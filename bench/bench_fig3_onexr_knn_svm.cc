// Figure 3: Scenario OneXr, vary n_R = |D_FK|, for (A) 1-NN and
// (B) RBF-SVM — the Figure 2(B) setup with the other two high-capacity
// models.
//
// Paper claim to check: the RBF-SVM's NoJoin error deviates from JoinAll
// once the tuple ratio falls below ~6; the 1-NN is far less stable and
// deviates even at a tuple ratio of ~100 (n_R = 10 at n_S = 1000).

#include <cstdio>

#include "bench_util.h"
#include "hamlet/synth/onexr.h"

int main() {
  using namespace hamlet;
  const bench::CounterScope counters;
  bench::PrintHeader("Figure 3: OneXr vary nR, 1-NN (A) and RBF-SVM (B)");
  const std::vector<double> nrs =
      bench::IsFullMode() ? std::vector<double>{1, 10, 40, 100, 250, 500, 1000}
                          : std::vector<double>{10, 40, 170, 500};
  auto onexr = [](double nr, size_t run) {
    synth::OneXrConfig cfg;
    cfg.nr = static_cast<size_t>(nr);
    cfg.seed = 8811 + 131 * run;
    return synth::GenerateOneXr(cfg);
  };

  bench::RunSimulationPanel("(A) 1-NN", "nR", nrs, bench::SimModel::kOneNn,
                            onexr);
  bench::RunSimulationPanel("(B) RBF-SVM", "nR", nrs,
                            bench::SimModel::kSvmRbf, onexr);

  std::printf(
      "Expected shape (paper Fig. 3): 1-NN NoJoin degrades early (already\n"
      "at nR ~ 10); RBF-SVM NoJoin tracks JoinAll until the tuple ratio\n"
      "falls below ~6 (nR ~ 80+ at nS = 1000 -> 500 train rows).\n");
  bench::PrintSvmCacheStats(counters);
  bench::PrintPackedStats(counters);
  return bench::ExitCode();
}
