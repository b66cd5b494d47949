// Figure 8: Scenario RepOneXr with the RBF-SVM (same setup as Figure 7).
//
// Paper claim to check: NoJoin tracks JoinAll at tuple ratio ~25 (A) and
// starts deviating around ~5 (B) — the SVM's threshold is ~6x.

#include <cstdio>

#include "bench_util.h"
#include "hamlet/synth/reponexr.h"

int main() {
  using namespace hamlet;
  const bench::CounterScope counters;
  bench::PrintHeader("Figure 8: RepOneXr simulations, RBF-SVM");
  const std::vector<double> drs = bench::IsFullMode()
                                      ? std::vector<double>{1, 6, 11, 16}
                                      : std::vector<double>{1, 8, 16};
  // Panels (A) and (B) differ only in nR; run r draws seed 8181 + 131 r.
  auto reponexr = [](size_t nr) {
    return [nr](double dr, size_t run) {
      synth::RepOneXrConfig cfg;
      cfg.nr = nr;
      cfg.dr = static_cast<size_t>(dr);
      cfg.seed = 8181 + 131 * run;
      return synth::GenerateRepOneXr(cfg);
    };
  };

  bench::RunSimulationPanel("(A) nR = 40 (tuple ratio ~25)", "dR", drs,
                            bench::SimModel::kSvmRbf, reponexr(40));
  bench::RunSimulationPanel("(B) nR = 200 (tuple ratio ~5)", "dR", drs,
                            bench::SimModel::kSvmRbf, reponexr(200));

  std::printf(
      "Expected shape (paper Fig. 8): NoJoin ~ JoinAll in (A); a visible\n"
      "NoJoin deviation opens in (B), the ~5x tuple-ratio regime.\n");
  bench::PrintSvmCacheStats(counters);
  bench::PrintPackedStats(counters);
  return bench::ExitCode();
}
