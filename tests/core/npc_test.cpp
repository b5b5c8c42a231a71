// Tests of the §4 NP-completeness apparatus, culminating in the Theorem-1
// equivalence check: the exact optimum of the reduced platform equals the
// maximum independent set size.
#include "core/npc/reduction.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/heuristics.hpp"
#include "support/rng.hpp"

namespace dls::core::npc {
namespace {

Graph paper_example() {
  // Figure 3 of the paper: V1..V4 with edges l1=(V1,V2), l2=(V2,V3),
  // l3=(V1,V3), l4=(V3,V4) (0-indexed here).
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  return g;
}

TEST(Graph, BasicOperations) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_THROW(g.add_edge(0, 0), Error);
  EXPECT_THROW(g.add_edge(0, 1), Error);  // duplicate
  EXPECT_THROW(g.add_edge(0, 5), Error);
}

TEST(Mis, EmptyGraphTakesAllVertices) {
  Graph g(5);
  EXPECT_EQ(maximum_independent_set(g).size(), 5u);
}

TEST(Mis, CompleteGraphTakesOne) {
  Graph g(4);
  for (int i = 0; i < 4; ++i)
    for (int j = i + 1; j < 4; ++j) g.add_edge(i, j);
  EXPECT_EQ(maximum_independent_set(g).size(), 1u);
}

TEST(Mis, PathGraph) {
  // Path on 5 vertices: MIS = {0, 2, 4}.
  Graph g(5);
  for (int i = 0; i + 1 < 5; ++i) g.add_edge(i, i + 1);
  const auto mis = maximum_independent_set(g);
  EXPECT_EQ(mis.size(), 3u);
}

TEST(Mis, CycleGraph) {
  // C6: MIS size 3. C5: MIS size 2.
  Graph c6(6);
  for (int i = 0; i < 6; ++i) c6.add_edge(i, (i + 1) % 6);
  EXPECT_EQ(maximum_independent_set(c6).size(), 3u);
  Graph c5(5);
  for (int i = 0; i < 5; ++i) c5.add_edge(i, (i + 1) % 5);
  EXPECT_EQ(maximum_independent_set(c5).size(), 2u);
}

TEST(Mis, PaperExample) {
  // Figure 3 graph: {V1, V4} ... 0-indexed {0 or 1, 3} plus? MIS = {0,1}?
  // Edges: 0-1, 1-2, 0-2, 2-3. Independent: {0,3},{1,3} of size 2; adding
  // more impossible (0-1 edge). So size 2.
  const auto mis = maximum_independent_set(paper_example());
  EXPECT_EQ(mis.size(), 2u);
}

TEST(Mis, ResultIsIndependentAndMaximal) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    Graph g(n);
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (rng.bernoulli(0.4)) g.add_edge(i, j);
    const auto mis = maximum_independent_set(g);
    for (std::size_t a = 0; a < mis.size(); ++a)
      for (std::size_t b = a + 1; b < mis.size(); ++b)
        EXPECT_FALSE(g.has_edge(mis[a], mis[b]));
    // Maximal: every vertex outside has a neighbor inside (otherwise the
    // set could grow, contradicting maximality).
    for (int v = 0; v < n; ++v) {
      if (std::find(mis.begin(), mis.end(), v) != mis.end()) continue;
      bool blocked = false;
      for (int u : mis) blocked |= g.has_edge(u, v);
      EXPECT_TRUE(blocked) << "vertex " << v << " could extend the MIS";
    }
  }
}

TEST(Reduction, StructureMatchesPaper) {
  const Graph g = paper_example();
  const ReductionInstance inst = build_reduction(g);
  const auto& plat = inst.platform;
  // n+1 clusters; 1 + n + 2m routers.
  EXPECT_EQ(plat.num_clusters(), 5);
  EXPECT_EQ(plat.num_routers(), 1 + 4 + 2 * 4);
  // C0: speed 0, gateway n; others speed = gateway = 1.
  EXPECT_EQ(plat.cluster(0).speed, 0.0);
  EXPECT_EQ(plat.cluster(0).gateway_bw, 4.0);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(plat.cluster(i).speed, 1.0);
    EXPECT_EQ(plat.cluster(i).gateway_bw, 1.0);
  }
  // All links have bw 1 and max-connect 1.
  for (int li = 0; li < plat.num_links(); ++li) {
    EXPECT_EQ(plat.link(li).bw, 1.0);
    EXPECT_EQ(plat.link(li).max_connections, 1);
  }
  // Payoffs: only the source application counts.
  EXPECT_EQ(inst.payoffs[0], 1.0);
  for (int i = 1; i <= 4; ++i) EXPECT_EQ(inst.payoffs[i], 0.0);
  // Routes exist exactly from C0 to each Ci.
  for (int i = 1; i <= 4; ++i) EXPECT_TRUE(plat.has_route(0, i));
  EXPECT_FALSE(plat.has_route(1, 2));
  EXPECT_FALSE(plat.has_route(1, 0));
}

TEST(Reduction, Lemma1OnPaperExample) {
  const Graph g = paper_example();
  EXPECT_TRUE(lemma1_holds(g, build_reduction(g)));
}

TEST(Reduction, Lemma1OnRandomGraphs) {
  Rng rng(17);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    Graph g(n);
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (rng.bernoulli(0.35)) g.add_edge(i, j);
    const ReductionInstance inst = build_reduction(g);
    EXPECT_NO_THROW(inst.platform.validate());
    EXPECT_TRUE(lemma1_holds(g, inst)) << "trial " << trial;
  }
}

/// Theorem 1, constructive direction on actual solves: the exact MILP
/// optimum of the reduced instance equals the MIS size.
TEST(Theorem1, ExactThroughputEqualsMisSize) {
  Rng rng(23);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 6));
    Graph g(n);
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (rng.bernoulli(0.4)) g.add_edge(i, j);

    const auto mis = maximum_independent_set(g);
    const ReductionInstance inst = build_reduction(g);
    SteadyStateProblem problem(inst.platform, inst.payoffs, Objective::MaxMin);
    lp::MilpOptions options;
    options.max_nodes = 50000;
    const auto exact = solve_exact(problem, options);
    ASSERT_EQ(exact.status, lp::SolveStatus::Optimal) << "trial " << trial;
    EXPECT_NEAR(exact.objective, static_cast<double>(mis.size()), 1e-5)
        << "trial " << trial << " n=" << n << " m=" << g.num_edges();
    EXPECT_TRUE(validate_allocation(problem, exact.allocation, 1e-5).ok);
  }
}

TEST(Theorem1, PaperExampleInstance) {
  const Graph g = paper_example();
  const ReductionInstance inst = build_reduction(g);
  SteadyStateProblem problem(inst.platform, inst.payoffs, Objective::MaxMin);
  const auto exact = solve_exact(problem);
  ASSERT_EQ(exact.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(exact.objective, 2.0, 1e-6);  // MIS of Figure 3 has size 2
}

TEST(Theorem1, LpRelaxationCanExceedMis) {
  // On the complete graph K3 the relaxation can split connections
  // fractionally, so LP > MIS — the integrality gap that makes the
  // problem hard.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  const ReductionInstance inst = build_reduction(g);
  SteadyStateProblem problem(inst.platform, inst.payoffs, Objective::MaxMin);
  const auto bound = lp_upper_bound(problem, solve_relaxation(problem));
  ASSERT_EQ(bound.status, lp::SolveStatus::Optimal);
  EXPECT_GT(bound.objective, 1.0 + 1e-6);  // MIS(K3) = 1
}

}  // namespace
}  // namespace dls::core::npc
