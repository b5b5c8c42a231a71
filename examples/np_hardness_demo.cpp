// Theorem 1 (paper §4), constructively: scheduling throughput is NP-hard
// because it embeds MAXIMUM-INDEPENDENT-SET.
//
// The demo builds the paper's Figure 3/4 example — a 4-vertex graph and
// the platform gadget derived from it — and shows:
//   * Lemma 1: routes share a backbone link exactly when the
//     corresponding vertices are adjacent;
//   * the exact (integer-beta) optimum equals the maximum independent
//     set size, while the rational relaxation overshoots it (the
//     integrality gap the hardness lives in);
//   * LPRR lands on an integer solution matching the optimum here.
#include <iostream>

#include "core/heuristics.hpp"
#include "core/npc/reduction.hpp"
#include "support/rng.hpp"

int main() {
  using namespace dls;
  using core::npc::Graph;

  // Figure 3 of the paper: V1..V4, edges (V1,V2), (V2,V3), (V1,V3), (V3,V4).
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 3);

  const auto mis = core::npc::maximum_independent_set(g);
  std::cout << "graph: 4 vertices, " << g.num_edges() << " edges\n"
            << "maximum independent set: {";
  for (std::size_t i = 0; i < mis.size(); ++i)
    std::cout << (i ? ", " : "") << "V" << mis[i] + 1;
  std::cout << "} -> size " << mis.size() << "\n\n";

  const auto inst = core::npc::build_reduction(g);
  std::cout << "reduced platform: " << inst.platform.num_clusters() << " clusters, "
            << inst.platform.num_routers() << " routers, "
            << inst.platform.num_links() << " backbone links (all bw=1, max-connect=1)\n"
            << "Lemma 1 (routes share a link iff vertices adjacent): "
            << (core::npc::lemma1_holds(g, inst) ? "holds" : "VIOLATED") << "\n\n";

  const core::SteadyStateProblem problem(inst.platform, inst.payoffs,
                                         core::Objective::MaxMin);

  const auto bound = core::lp_upper_bound(problem, core::solve_relaxation(problem));
  std::cout << "rational relaxation (fractional connections): " << bound.objective
            << "\n";

  const auto exact = core::solve_exact(problem);
  std::cout << "exact mixed program (integer connections):    " << exact.objective
            << "  [" << exact.nodes << " branch-and-bound nodes]\n"
            << "maximum independent set size:                 " << mis.size() << "\n\n";

  Rng coin(1);
  const auto lprr = core::run_lprr(problem, coin);
  std::cout << "LPRR randomized rounding finds:               " << lprr.objective
            << "\n\n";

  const bool match = exact.status == lp::SolveStatus::Optimal &&
                     std::abs(exact.objective - static_cast<double>(mis.size())) < 1e-6;
  std::cout << (match ? "throughput == MIS size: the reduction is faithful.\n"
                      : "MISMATCH: reduction broken!\n");
  return match ? 0 : 1;
}
