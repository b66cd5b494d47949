// Figure 7: Scenario RepOneXr (X_R = dR replicas of Xr), decision tree.
// Panels: (A) vary d_R at n_R = 40 (tuple ratio ~25 on the train split),
// (B) vary d_R at n_R = 200 (tuple ratio ~5).
//
// Paper claim to check: inflating |D_FK| relative to |D_Xr| — the setup
// engineered to "confuse" NoJoin — still leaves JoinAll ~ NoJoin for the
// tree at both tuple ratios.

#include <cstdio>

#include "bench_util.h"
#include "hamlet/synth/reponexr.h"

int main() {
  using namespace hamlet;
  bench::PrintHeader("Figure 7: RepOneXr simulations, decision tree (gini)");
  const std::vector<double> drs = bench::IsFullMode()
                                      ? std::vector<double>{1, 6, 11, 16}
                                      : std::vector<double>{1, 8, 16};
  // Panels (A) and (B) differ only in nR; run r draws seed 7171 + 131 r.
  auto reponexr = [](size_t nr) {
    return [nr](double dr, size_t run) {
      synth::RepOneXrConfig cfg;
      cfg.nr = nr;
      cfg.dr = static_cast<size_t>(dr);
      cfg.seed = 7171 + 131 * run;
      return synth::GenerateRepOneXr(cfg);
    };
  };

  bench::RunSimulationPanel("(A) nR = 40 (tuple ratio ~25)", "dR", drs,
                            bench::SimModel::kTreeGini, reponexr(40));
  bench::RunSimulationPanel("(B) nR = 200 (tuple ratio ~5)", "dR", drs,
                            bench::SimModel::kTreeGini, reponexr(200));

  std::printf(
      "Expected shape (paper Fig. 7): JoinAll ~ NoJoin at both tuple\n"
      "ratios, for every dR.\n");
  return bench::ExitCode();
}
