// Ablation: how the (paper-unspecified) application payoff spread shapes
// the evaluation. With uniform payoffs (spread 0) local-only computation
// is optimal, G pins at ratio 1.0 and the network never binds; widening
// the spread makes both objectives network-bound and opens the gaps the
// paper's Figure 5 reports. This experiment is the evidence behind the
// payoff interpretation documented in DESIGN.md.
#include <iostream>
#include <string>

#include "exp/experiment.hpp"
#include "support/error.hpp"
#include "support/table.hpp"

int main() try {
  using namespace dls;
  const std::uint64_t seed = exp::bench_seed();
  const int per_cell = exp::scaled(8);
  const int k = 25;

  std::cout << "# Payoff-spread ablation at K = " << k << " (" << per_cell
            << " platforms per spread)\n"
            << "# spread 0 => local-only optimal, G/LP = 1; growing spread =>\n"
            << "# network-bound instances and the paper's heuristic gaps\n";

  TextTable table({"spread", "MAXMIN(G)/LP", "MAXMIN(LPRG)/LP", "SUM(G)/LP",
                   "SUM(LPRG)/LP", "cases"});
  const platform::Table1Grid grid;
  for (const double spread : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    exp::RatioAccumulator mm_g, mm_lprg, sum_g, sum_lprg;
    int cases = 0;
    for (int rep = 0; rep < per_cell; ++rep) {
      Rng rng(seed + 7001ULL * rep + static_cast<std::uint64_t>(spread * 100));
      exp::CaseConfig config;
      config.params = exp::sample_grid_params(grid, k, rng);
      config.seed = rng.next_u64();
      config.payoff_spread = spread;

      config.objective = core::Objective::MaxMin;
      const exp::CaseResult mm = exp::run_case(config);
      config.objective = core::Objective::Sum;
      const exp::CaseResult sum = exp::run_case(config);
      if (!mm.ok || !sum.ok) continue;
      ++cases;
      mm_g.add(mm.g, mm.lp);
      mm_lprg.add(mm.lprg, mm.lp);
      sum_g.add(sum.g, sum.lp);
      sum_lprg.add(sum.lprg, sum.lp);
    }
    table.add_row({TextTable::fmt(spread, 1), TextTable::fmt(mm_g.mean(), 4),
                   TextTable::fmt(mm_lprg.mean(), 4), TextTable::fmt(sum_g.mean(), 4),
                   TextTable::fmt(sum_lprg.mean(), 4), std::to_string(cases)});
  }
  table.print(std::cout);
  return 0;
} catch (const dls::Error& e) {
  std::cerr << "bench_payoff_ablation: " << e.what() << '\n';
  return 1;
}
