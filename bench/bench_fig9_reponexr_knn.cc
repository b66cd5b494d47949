// Figure 9: Scenario RepOneXr with 1-NN (same setup as Figure 7).
//
// Paper claim to check: 1-NN is the least stable — NoJoin deviates from
// JoinAll even at the *higher* tuple ratio of ~25 (panel A), and both
// trail NoFK at the lower ratio.

#include <cstdio>

#include "bench_util.h"
#include "hamlet/synth/reponexr.h"

int main() {
  using namespace hamlet;
  bench::PrintHeader("Figure 9: RepOneXr simulations, 1-NN");
  const bench::CounterScope counters;
  const std::vector<double> drs = bench::IsFullMode()
                                      ? std::vector<double>{1, 6, 11, 16}
                                      : std::vector<double>{1, 8, 16};
  // Panels (A) and (B) differ only in nR; run r draws seed 9191 + 131 r.
  auto reponexr = [](size_t nr) {
    return [nr](double dr, size_t run) {
      synth::RepOneXrConfig cfg;
      cfg.nr = nr;
      cfg.dr = static_cast<size_t>(dr);
      cfg.seed = 9191 + 131 * run;
      return synth::GenerateRepOneXr(cfg);
    };
  };

  bench::RunSimulationPanel("(A) nR = 40 (tuple ratio ~25)", "dR", drs,
                            bench::SimModel::kOneNn, reponexr(40));
  bench::RunSimulationPanel("(B) nR = 200 (tuple ratio ~5)", "dR", drs,
                            bench::SimModel::kOneNn, reponexr(200));

  bench::PrintPackedStats(counters);
  std::printf(
      "Expected shape (paper Fig. 9): 1-NN NoJoin deviates from JoinAll\n"
      "already in (A); both trail NoFK badly in (B).\n");
  return bench::ExitCode();
}
