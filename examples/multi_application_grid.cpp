// A realistic multi-site grid, modeled after the platforms that motivate
// the paper: three institutions on different continents, each a cluster
// reduced to its equivalent speed, joined by backbone segments through
// transit routers. Five divisible applications compete (two institutions
// host two each). Compares every heuristic against the LP bound and
// executes the winning schedule on the flow-level simulator.
#include <iostream>

#include "core/heuristics.hpp"
#include "core/schedule.hpp"
#include "platform/platform.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

int main() {
  using namespace dls;

  // Topology: eu and us sites peer through a fast transatlantic segment;
  // asia reaches both through a congested transit router.
  platform::Platform plat;
  const auto r_eu = plat.add_router("r-eu");
  const auto r_us = plat.add_router("r-us");
  const auto r_asia = plat.add_router("r-asia");
  const auto r_ix = plat.add_router("r-ix");  // transit exchange

  plat.add_cluster(420, 180, r_eu, "eu-cluster");    // big site
  plat.add_cluster(250, 120, r_us, "us-cluster");
  plat.add_cluster(90, 45, r_asia, "asia-cluster");  // small site

  plat.add_backbone(r_eu, r_us, 25, 8, "transatlantic");
  plat.add_backbone(r_eu, r_ix, 12, 4, "eu-ix");
  plat.add_backbone(r_us, r_ix, 10, 4, "us-ix");
  plat.add_backbone(r_asia, r_ix, 6, 3, "asia-ix");
  plat.compute_shortest_path_routes();

  // The asia application is high priority (payoff 3): its site is small,
  // so meeting that priority requires exporting load across the transit.
  const std::vector<double> payoffs{1.0, 1.0, 3.0};

  for (core::Objective obj : {core::Objective::Sum, core::Objective::MaxMin}) {
    const core::SteadyStateProblem problem(plat, payoffs, obj);
    const auto relaxation = core::solve_relaxation(problem);
    const auto bound = core::lp_upper_bound(problem, relaxation);
    const auto g = core::run_greedy(problem);
    const auto lpr = core::run_lpr(problem, relaxation);
    const auto lprg = core::run_lprg(problem, relaxation);
    Rng coin(2024);
    const auto lprr = core::run_lprr(problem, coin);

    std::cout << "== objective " << to_string(obj) << " ==\n";
    TextTable table({"method", "objective", "ratio to LP", "LP solves"});
    auto row = [&](const char* name, double value, int solves) {
      table.add_row({name, TextTable::fmt(value, 2),
                     TextTable::fmt(bound.objective > 0 ? value / bound.objective : 0, 4),
                     std::to_string(solves)});
    };
    row("LP bound", bound.objective, 1);
    row("G", g.objective, 0);
    row("LPR", lpr.objective, lpr.lp_solves);
    row("LPRG", lprg.objective, lprg.lp_solves);
    row("LPRR", lprr.objective, lprr.lp_solves);
    table.print(std::cout);

    std::cout << "per-application throughput under LPRG:\n";
    for (int k = 0; k < plat.num_clusters(); ++k)
      std::cout << "  " << plat.cluster(k).name << ": "
                << TextTable::fmt(lprg.allocation.total_alpha(k), 2)
                << " units/s (payoff " << payoffs[k] << ")\n";

    const auto sched = core::build_periodic_schedule(problem, lprg.allocation);
    sim::SimOptions opt;
    opt.periods = 10;
    const auto report = sim::simulate_schedule(problem, sched, opt);
    std::cout << "simulated execution: period " << sched.period
              << ", worst overrun ratio "
              << TextTable::fmt(report.worst_overrun_ratio, 4) << "\n\n";
  }
  return 0;
}
