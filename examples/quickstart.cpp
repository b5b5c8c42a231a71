// Quickstart: build a two-site platform by hand, schedule two divisible
// load applications on it, and print the steady-state plan.
//
//   site A: 100 work units/s of compute behind a 50-unit gateway
//   site B: 100 work units/s behind a 60-unit gateway
//   one backbone link between them: each connection gets bandwidth 10,
//   at most 4 application connections may be opened.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart
#include <iostream>

#include "core/heuristics.hpp"
#include "core/schedule.hpp"
#include "platform/platform.hpp"

int main() {
  using namespace dls;

  // 1. Describe the platform (paper §2).
  platform::Platform plat;
  const auto router_a = plat.add_router("router-a");
  const auto router_b = plat.add_router("router-b");
  plat.add_cluster(/*speed=*/100, /*gateway_bw=*/50, router_a, "site-a");
  plat.add_cluster(/*speed=*/100, /*gateway_bw=*/60, router_b, "site-b");
  plat.add_backbone(router_a, router_b, /*bw=*/10, /*max_connections=*/4, "wan");
  plat.compute_shortest_path_routes();

  // 2. One application per site. Payoffs encode priority: site-a's
  //    application is twice as valuable per unit of work.
  const std::vector<double> payoffs{2.0, 1.0};
  const core::SteadyStateProblem problem(plat, payoffs, core::Objective::MaxMin);

  // 3. Upper bound (rational relaxation) and the LPRG heuristic.
  const auto relaxation = core::solve_relaxation(problem);
  const auto bound = core::lp_upper_bound(problem, relaxation);
  const auto plan = core::run_lprg(problem, relaxation);
  std::cout << "LP upper bound (MAXMIN): " << bound.objective << "\n"
            << "LPRG achieves:           " << plan.objective << "\n\n";

  // 4. The steady-state allocation: who computes what, per time unit.
  for (int k = 0; k < plat.num_clusters(); ++k) {
    for (int l = 0; l < plat.num_clusters(); ++l) {
      const double a = plan.allocation.alpha(k, l);
      if (a <= 0) continue;
      std::cout << "app of " << plat.cluster(k).name << " runs " << a
                << " units/s on " << plat.cluster(l).name;
      if (k != l)
        std::cout << " over " << plan.allocation.beta(k, l) << " connection(s)";
      std::cout << "\n";
    }
  }

  // 5. Reconstruct the periodic schedule (paper §3.2).
  const auto sched = core::build_periodic_schedule(problem, plan.allocation);
  std::cout << "\nperiodic schedule, period = " << sched.period << " time unit(s):\n";
  for (const auto& t : sched.transfers)
    std::cout << "  ship " << t.units << " units " << plat.cluster(t.from).name
              << " -> " << plat.cluster(t.to).name << " on " << t.connections
              << " connection(s)\n";
  for (const auto& c : sched.compute)
    std::cout << "  compute " << c.units << " units of app "
              << plat.cluster(c.app).name << " on "
              << plat.cluster(c.on_cluster).name << "\n";

  const auto check = core::validate_schedule(problem, sched);
  std::cout << "\nschedule valid: " << (check.ok ? "yes" : "NO") << "\n";
  return check.ok ? 0 : 1;
}
