// Figure 5: Scenario OneXr with foreign-key skew, decision tree (gini).
// Panels: (A) vary the Zipfian skew parameter, (B) vary n_S at Zipf skew 2,
// (C) vary the needle probability, (D) vary n_S at needle mass 0.5.
//
// Paper claim to check: no amount of FK skew (Zipfian or needle-and-
// thread) widens the gap between NoJoin and JoinAll for the decision tree.

#include <cstdio>

#include "bench_util.h"
#include "hamlet/synth/onexr.h"

int main() {
  using namespace hamlet;
  using synth::FkSkew;
  using synth::OneXrConfig;
  bench::PrintHeader("Figure 5: OneXr with FK skew, decision tree (gini)");
  const bool full = bench::IsFullMode();
  // Each panel sweeps one OneXrConfig field; run r draws seed 5151 + 131 r.
  auto onexr = [](auto config_for) {
    return [config_for](double x, size_t run) {
      OneXrConfig cfg = config_for(x);
      cfg.seed = 5151 + 131 * run;
      return synth::GenerateOneXr(cfg);
    };
  };

  bench::RunSimulationPanel(
      "(A) vary Zipf skew parameter", "zipf",
      full ? std::vector<double>{0, 1, 2, 3, 4}
           : std::vector<double>{0, 2, 4},
      bench::SimModel::kTreeGini, onexr([](double x) {
        OneXrConfig cfg;
        cfg.skew = FkSkew::kZipf;
        cfg.skew_param = x;
        return cfg;
      }));

  bench::RunSimulationPanel(
      "(B) vary nS at Zipf skew 2", "nS",
      full ? std::vector<double>{100, 500, 1000, 3000, 10000}
           : std::vector<double>{200, 1000, 4000},
      bench::SimModel::kTreeGini, onexr([](double x) {
        OneXrConfig cfg;
        cfg.ns = static_cast<size_t>(x);
        cfg.skew = FkSkew::kZipf;
        cfg.skew_param = 2.0;
        return cfg;
      }));

  bench::RunSimulationPanel(
      "(C) vary needle probability", "p_needle",
      full ? std::vector<double>{0.1, 0.25, 0.5, 0.75, 0.95}
           : std::vector<double>{0.1, 0.5, 0.95},
      bench::SimModel::kTreeGini, onexr([](double x) {
        OneXrConfig cfg;
        cfg.skew = FkSkew::kNeedleThread;
        cfg.skew_param = x;
        return cfg;
      }));

  bench::RunSimulationPanel(
      "(D) vary nS at needle probability 0.5", "nS",
      full ? std::vector<double>{100, 500, 1000, 3000, 10000}
           : std::vector<double>{200, 1000, 4000},
      bench::SimModel::kTreeGini, onexr([](double x) {
        OneXrConfig cfg;
        cfg.ns = static_cast<size_t>(x);
        cfg.skew = FkSkew::kNeedleThread;
        cfg.skew_param = 0.5;
        return cfg;
      }));

  std::printf(
      "Expected shape (paper Fig. 5): the NoJoin-JoinAll gap stays flat\n"
      "under both skew families; NoFK wins only at very small nS.\n");
  return bench::ExitCode();
}
