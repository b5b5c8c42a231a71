// Payoff factors as resource-sharing policy (paper §3.1):
//   * SUM maximizes total weighted work — it will starve low-priority
//     applications if the network allows concentrating resources;
//   * MAXMIN maximizes the worst weighted throughput — weighted max-min
//     fairness (Bertsekas-Gallager) between the applications;
//   * payoff 0 removes a cluster's application entirely: the cluster
//     donates its CPU to everyone else.
#include <iostream>

#include "core/heuristics.hpp"
#include "platform/generator.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

int main() {
  using namespace dls;

  Rng rng(7);
  platform::GeneratorParams params;
  params.num_clusters = 6;
  params.connectivity = 0.7;
  params.heterogeneity = 0.3;
  params.mean_gateway_bw = 150;
  params.mean_backbone_bw = 30;
  params.mean_max_connections = 10;
  const platform::Platform plat = generate_platform(params, rng);

  // Three priority tiers plus a donor: cluster 5 runs no application.
  const std::vector<double> payoffs{4.0, 2.0, 1.0, 1.0, 1.0, 0.0};

  std::cout << "payoffs: app0=4 (urgent), app1=2, app2..4=1, cluster5=donor\n\n";
  for (core::Objective obj : {core::Objective::Sum, core::Objective::MaxMin}) {
    const core::SteadyStateProblem problem(plat, payoffs, obj);
    const auto lprg = core::run_lprg(problem, core::solve_relaxation(problem));

    std::cout << "== " << to_string(obj) << " (LPRG objective "
              << TextTable::fmt(lprg.objective, 1) << ") ==\n";
    TextTable table({"application", "payoff", "throughput", "weighted"});
    for (int k = 0; k < plat.num_clusters(); ++k) {
      const double alpha = lprg.allocation.total_alpha(k);
      table.add_row({"app" + std::to_string(k), TextTable::fmt(payoffs[k], 0),
                     TextTable::fmt(alpha, 1),
                     TextTable::fmt(payoffs[k] * alpha, 1)});
    }
    table.print(std::cout);

    // Where does the donor's CPU go?
    double donated = 0;
    for (int k = 0; k < plat.num_clusters(); ++k) donated += lprg.allocation.alpha(k, 5);
    std::cout << "work executed on the donor cluster: " << TextTable::fmt(donated, 1)
              << " units/s\n\n";
  }

  std::cout << "reading: SUM funnels resources to the payoff-4 application;\n"
               "MAXMIN equalizes payoff*throughput, so low-priority apps get\n"
               "proportionally more raw throughput. The donor computes for\n"
               "others under both policies.\n";
  return 0;
}
