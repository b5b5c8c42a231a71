// Figure 5 reproduction: mean objective value of LPRG and G relative to
// the LP upper bound, versus the number of clusters K, for both the
// MAXMIN and SUM objectives.
//
// Paper result: LPRG(SUM)/LP climbs towards ~1 as K grows and always
// dominates G(SUM)/LP; for MAXMIN both heuristics sit much lower
// (~0.6-0.7 at large K, where LPRR is needed), with LPRG overtaking G as
// K grows past ~10 and G slightly ahead at K = 5.
#include <iostream>
#include <string>

#include "exp/experiment.hpp"
#include "support/error.hpp"
#include "support/table.hpp"

int main() try {
  using namespace dls;
  const std::uint64_t seed = exp::bench_seed();
  const int per_k = exp::scaled(6);
  // The full paper K range; sized for a couple of minutes on one core.
  const std::vector<int> ks{5, 15, 25, 35, 45, 55, 65, 75, 85, 95};

  std::cout << "# Figure 5: objective value relative to the LP bound vs K ("
            << per_k << " platforms per K, parameters sampled from Table 1)\n"
            << "# paper expectation: SUM(LPRG) -> ~1 and > SUM(G);"
            << " MAXMIN ratios much lower; MAXMIN(G) competitive only at small K\n";

  TextTable table({"K", "MAXMIN(LPRG)/LP", "MAXMIN(G)/LP", "SUM(LPRG)/LP",
                   "SUM(G)/LP", "cases"});
  const platform::Table1Grid grid;
  for (const int k : ks) {
    exp::RatioAccumulator mm_lprg, mm_g, sum_lprg, sum_g;
    int cases = 0;
    for (int rep = 0; rep < per_k; ++rep) {
      Rng rng(seed + 104729ULL * k + rep);
      exp::CaseConfig config;
      config.params = exp::sample_grid_params(grid, k, rng);
      config.seed = rng.next_u64();

      config.objective = core::Objective::MaxMin;
      const exp::CaseResult mm = exp::run_case(config);
      config.objective = core::Objective::Sum;
      const exp::CaseResult sum = exp::run_case(config);
      if (!mm.ok || !sum.ok) continue;
      ++cases;
      mm_lprg.add(mm.lprg, mm.lp);
      mm_g.add(mm.g, mm.lp);
      sum_lprg.add(sum.lprg, sum.lp);
      sum_g.add(sum.g, sum.lp);
    }
    table.add_row({std::to_string(k), TextTable::fmt(mm_lprg.mean(), 4),
                   TextTable::fmt(mm_g.mean(), 4), TextTable::fmt(sum_lprg.mean(), 4),
                   TextTable::fmt(sum_g.mean(), 4), std::to_string(cases)});
  }
  table.print(std::cout);
  return 0;
} catch (const dls::Error& e) {
  std::cerr << "bench_fig5_heuristics: " << e.what() << '\n';
  return 1;
}
