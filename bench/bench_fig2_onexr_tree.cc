// Figure 2: Scenario OneXr simulations with the gini decision tree.
// Panels: (A) vary n_S, (B) vary n_R = |D_FK|, (C) vary d_S, (D) vary d_R,
// (E) vary the probability parameter p, (F) vary |D_Xr|.
//
// Paper claim to check: JoinAll and NoJoin have virtually identical errors
// (near the Bayes error) across every panel; NoFK is better only when the
// tuple ratio is very low.

#include <cstdio>

#include "bench_util.h"
#include "hamlet/synth/onexr.h"

int main() {
  using namespace hamlet;
  using synth::OneXrConfig;
  bench::PrintHeader("Figure 2: OneXr simulations, decision tree (gini)");
  const bool full = bench::IsFullMode();
  // Each panel sweeps one OneXrConfig field; run r draws seed 7777 + 131 r.
  auto onexr = [](auto config_for) {
    return [config_for](double x, size_t run) {
      OneXrConfig cfg = config_for(x);
      cfg.seed = 7777 + 131 * run;
      return synth::GenerateOneXr(cfg);
    };
  };

  // (A) vary nS; (nR, dS, dR) = (40, 4, 4).
  bench::RunSimulationPanel(
      "(A) vary nS", "nS",
      full ? std::vector<double>{100, 500, 1000, 2000, 5000, 10000}
           : std::vector<double>{200, 1000, 4000},
      bench::SimModel::kTreeGini, onexr([](double x) {
        OneXrConfig cfg;
        cfg.ns = static_cast<size_t>(x);
        return cfg;
      }));

  // (B) vary nR; (nS, dS, dR) = (1000, 4, 4).
  bench::RunSimulationPanel(
      "(B) vary nR = |D_FK|", "nR",
      full ? std::vector<double>{1, 10, 40, 100, 250, 500, 1000}
           : std::vector<double>{10, 40, 170, 500},
      bench::SimModel::kTreeGini, onexr([](double x) {
        OneXrConfig cfg;
        cfg.nr = static_cast<size_t>(x);
        return cfg;
      }));

  // (C) vary dS; (nS, nR, dR) = (1000, 40, 4).
  bench::RunSimulationPanel(
      "(C) vary dS", "dS",
      full ? std::vector<double>{1, 2, 4, 7, 10}
           : std::vector<double>{1, 4, 10},
      bench::SimModel::kTreeGini, onexr([](double x) {
        OneXrConfig cfg;
        cfg.ds = static_cast<size_t>(x);
        return cfg;
      }));

  // (D) vary dR; (nS, nR, dS) = (1000, 40, 4).
  bench::RunSimulationPanel(
      "(D) vary dR", "dR",
      full ? std::vector<double>{1, 2, 4, 7, 10}
           : std::vector<double>{1, 4, 10},
      bench::SimModel::kTreeGini, onexr([](double x) {
        OneXrConfig cfg;
        cfg.dr = static_cast<size_t>(x);
        return cfg;
      }));

  // (E) vary p; (nS, nR, dS, dR) = (1000, 40, 4, 4).
  bench::RunSimulationPanel(
      "(E) vary p (label noise)", "p",
      full ? std::vector<double>{0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}
           : std::vector<double>{0.0, 0.1, 0.5, 0.9},
      bench::SimModel::kTreeGini, onexr([](double x) {
        OneXrConfig cfg;
        cfg.p = x;
        return cfg;
      }));

  // (F) vary |D_Xr|; other features binary.
  bench::RunSimulationPanel(
      "(F) vary |D_Xr|", "|D_Xr|",
      full ? std::vector<double>{2, 5, 10, 20, 40}
           : std::vector<double>{2, 10, 40},
      bench::SimModel::kTreeGini, onexr([](double x) {
        OneXrConfig cfg;
        cfg.xr_domain = static_cast<uint32_t>(x);
        return cfg;
      }));

  std::printf(
      "Expected shape (paper Fig. 2): JoinAll ~ NoJoin everywhere, near the\n"
      "Bayes error min(p, 1-p); errors rise for both only when nS is tiny\n"
      "or nR huge (tuple ratio < ~3), where NoFK is better.\n");
  return bench::ExitCode();
}
