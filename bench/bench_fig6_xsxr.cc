// Figure 6: Scenario XSXR simulations, decision tree (gini).
// Panels: (A) vary n_S, (B) vary n_R, (C) vary d_R, (D) vary d_S.
//
// Paper claim to check: even with the full [X_S, X_R] determining Y
// noise-free, NoJoin tracks JoinAll (largest paper gap: 0.017); NoFK stays
// low as n_R grows but loses its edge as d_R/d_S rise; all gaps close with
// more training data.

#include <cstdio>

#include "bench_util.h"
#include "hamlet/synth/xsxr.h"

int main() {
  using namespace hamlet;
  using synth::XsxrConfig;
  bench::PrintHeader("Figure 6: XSXR simulations, decision tree (gini)");
  const bool full = bench::IsFullMode();
  // Each panel sweeps one XsxrConfig field; run r draws seed 6161 + 131 r.
  auto xsxr = [](auto config_for) {
    return [config_for](double x, size_t run) {
      XsxrConfig cfg = config_for(x);
      cfg.seed = 6161 + 131 * run;
      return synth::GenerateXsxr(cfg);
    };
  };

  bench::RunSimulationPanel(
      "(A) vary nS", "nS",
      full ? std::vector<double>{100, 500, 1000, 2000, 5000, 10000}
           : std::vector<double>{200, 1000, 4000},
      bench::SimModel::kTreeGini, xsxr([](double x) {
        XsxrConfig cfg;
        cfg.ns = static_cast<size_t>(x);
        return cfg;
      }));

  bench::RunSimulationPanel(
      "(B) vary nR = |D_FK|", "nR",
      full ? std::vector<double>{10, 40, 100, 250, 500, 1000}
           : std::vector<double>{10, 40, 400},
      bench::SimModel::kTreeGini, xsxr([](double x) {
        XsxrConfig cfg;
        cfg.nr = static_cast<size_t>(x);
        return cfg;
      }));

  bench::RunSimulationPanel(
      "(C) vary dR", "dR",
      full ? std::vector<double>{1, 4, 7, 10} : std::vector<double>{1, 4, 8},
      bench::SimModel::kTreeGini, xsxr([](double x) {
        XsxrConfig cfg;
        cfg.dr = static_cast<size_t>(x);
        return cfg;
      }));

  bench::RunSimulationPanel(
      "(D) vary dS", "dS",
      full ? std::vector<double>{1, 4, 7, 10} : std::vector<double>{1, 4, 8},
      bench::SimModel::kTreeGini, xsxr([](double x) {
        XsxrConfig cfg;
        cfg.ds = static_cast<size_t>(x);
        return cfg;
      }));

  std::printf(
      "Expected shape (paper Fig. 6): NoJoin ~ JoinAll in every panel (max\n"
      "gap ~0.02); NoFK stays flat as nR rises; gaps close as nS grows.\n");
  return bench::ExitCode();
}
