// Figure 7 reproduction: running time of G, LPR, LPRG and LPRR versus the
// number of clusters K (log scale in the paper).
//
// Paper result (Pentium III 800MHz, lp_solve): G <= 0.1s; LP/LPR/LPRG grow
// from ~0.5s (K=10) to ~2s (K=40); LPRR is ~1000x LPRG at K=40 because it
// solves ~K^2 linear programs. Absolute numbers differ on modern hardware
// and with our own simplex, but the *separations* must hold: G orders of
// magnitude below the LP family, and LPRR above LPRG by a factor that
// grows roughly like the number of LP solves.
//
// exp::run_case solves the relaxation once and derives LP, LPR and LPRG
// from it; the LPR and LPRG columns each include that shared solve, so
// every column reads as the method's standalone running time.
#include <cstdio>
#include <iostream>

#include "exp/experiment.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main() {
  using namespace dls;
  const std::uint64_t seed = exp::bench_seed();
  const int reps = exp::scaled(3);
  // LPRR is restricted to smaller K by default (it is the paper's point
  // that it is impractically slow); raise DLS_BENCH_SCALE to extend.
  const int lprr_k_cap = exp::bench_scale() >= 2.0 ? 40 : 30;

  std::cout << "# Figure 7: heuristic running time vs K (seconds, mean of " << reps
            << " platforms per K)\n"
            << "# paper expectation: G << LP-based; LPRR ~ K^2 LP solves above LPRG\n";

  TextTable table({"K", "G", "LPR", "LPRG", "LPRR", "LPRR_solves"});
  const platform::Table1Grid grid;
  for (const int k : {10, 20, 30, 40}) {
    Accumulator tg, tlpr, tlprg, tlprr;
    double lprr_solves = 0.0;
    int lprr_count = 0;
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng(seed + 7919ULL * k + rep);
      exp::CaseConfig config;
      config.params = exp::sample_grid_params(grid, k, rng);
      config.objective = core::Objective::MaxMin;
      config.seed = rng.next_u64();
      config.with_lprr = k <= lprr_k_cap;
      const exp::CaseResult r = exp::run_case(config);
      if (!r.ok) continue;
      tg.add(r.t_g.seconds);
      tlpr.add(r.t_lpr.seconds);
      tlprg.add(r.t_lprg.seconds);
      if (config.with_lprr) {
        tlprr.add(r.t_lprr.seconds);
        lprr_solves += r.t_lprr.lp_solves;
        ++lprr_count;
      }
    }
    table.add_row({std::to_string(k), TextTable::fmt(tg.mean(), 6),
                   TextTable::fmt(tlpr.mean(), 6), TextTable::fmt(tlprg.mean(), 6),
                   lprr_count > 0 ? TextTable::fmt(tlprr.mean(), 3) : "-",
                   lprr_count > 0
                       ? TextTable::fmt(lprr_solves / lprr_count, 0)
                       : "-"});
  }
  table.print(std::cout);
  return 0;
}
