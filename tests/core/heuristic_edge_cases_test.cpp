// Edge-case and ablation tests for the heuristics: greedy local-exhaust
// policies, one-shot LPRR rounding, linkless (same-router) routes, and
// heuristics on the NP-hardness gadget platforms.
#include <gtest/gtest.h>

#include "core/heuristics.hpp"
#include "core/npc/reduction.hpp"
#include "platform/generator.hpp"
#include "support/rng.hpp"

namespace dls::core {
namespace {

constexpr double kTol = 1e-6;

TEST(GreedyPolicy, TakeRemainingBeatsDropOnIsolatedCluster) {
  // A lone cluster: the local cap is 0 (no other cluster exists), so the
  // drop policy abandons the application while take-remaining uses the
  // full speed.
  platform::Platform plat;
  const auto r = plat.add_router();
  plat.add_cluster(100, 50, r);
  plat.compute_shortest_path_routes();
  SteadyStateProblem problem(plat, {1.0}, Objective::Sum);

  GreedyOptions take;
  const auto with_take = run_greedy(problem, take);
  EXPECT_NEAR(with_take.objective, 100.0, kTol);

  GreedyOptions drop;
  drop.local_exhaust = LocalExhaustPolicy::DropApplication;
  const auto with_drop = run_greedy(problem, drop);
  EXPECT_NEAR(with_drop.objective, 0.0, kTol);
}

TEST(GreedyPolicy, TakeRemainingWeaklyDominatesOnRandomPlatforms) {
  Rng rng(31);
  platform::GeneratorParams params;
  params.num_clusters = 7;
  params.connectivity = 0.4;
  params.mean_gateway_bw = 60;
  params.mean_backbone_bw = 15;
  params.mean_max_connections = 3;
  for (int trial = 0; trial < 15; ++trial) {
    const auto plat = generate_platform(params, rng);
    std::vector<double> payoffs(plat.num_clusters());
    for (double& p : payoffs) p = rng.uniform(0.5, 1.5);
    SteadyStateProblem problem(plat, payoffs, Objective::Sum);
    GreedyOptions drop;
    drop.local_exhaust = LocalExhaustPolicy::DropApplication;
    const auto take = run_greedy(problem);
    const auto dropped = run_greedy(problem, drop);
    EXPECT_TRUE(validate_allocation(problem, dropped.allocation).ok);
    // SUM with take-remaining can only gain: it allocates a superset of
    // local work.
    EXPECT_GE(take.objective, dropped.objective - kTol) << "trial " << trial;
  }
}

TEST(LprrOneShot, ValidAndBelowBound) {
  Rng rng(17);
  platform::GeneratorParams params;
  params.num_clusters = 6;
  params.connectivity = 0.6;
  params.mean_backbone_bw = 10;
  params.mean_max_connections = 2;
  for (int trial = 0; trial < 10; ++trial) {
    const auto plat = generate_platform(params, rng);
    std::vector<double> payoffs(plat.num_clusters());
    for (double& p : payoffs) p = rng.uniform(0.5, 1.5);
    SteadyStateProblem problem(plat, payoffs, Objective::MaxMin);
    const auto bound = lp_upper_bound(problem, solve_relaxation(problem));

    LprrOptions oneshot;
    oneshot.resolve_between_fixings = false;
    Rng coin = rng.split();
    const auto r = run_lprr(problem, coin, oneshot);
    ASSERT_EQ(r.status, lp::SolveStatus::Optimal);
    EXPECT_TRUE(validate_allocation(problem, r.allocation, 1e-5).ok);
    EXPECT_LE(r.objective, bound.objective * (1 + 1e-5) + 1e-9);
    EXPECT_EQ(r.lp_solves, 2);  // one relaxation + one clean-up solve
  }
}

TEST(LprrOneShot, IterativeUsuallyAtLeastAsGood) {
  // Not a theorem, but across a batch the re-solving variant should win
  // on average — the very claim behind Figure 6's LPRR.
  Rng rng(23);
  platform::GeneratorParams params;
  params.num_clusters = 8;
  params.connectivity = 0.5;
  params.mean_backbone_bw = 8;
  params.mean_max_connections = 2;
  double iterative_total = 0, oneshot_total = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto plat = generate_platform(params, rng);
    std::vector<double> payoffs(plat.num_clusters());
    for (double& p : payoffs) p = rng.uniform(0.5, 1.5);
    SteadyStateProblem problem(plat, payoffs, Objective::MaxMin);
    Rng c1 = rng.split(), c2 = rng.split();
    iterative_total += run_lprr(problem, c1).objective;
    LprrOptions oneshot;
    oneshot.resolve_between_fixings = false;
    oneshot_total += run_lprr(problem, c2, oneshot).objective;
  }
  EXPECT_GE(iterative_total, oneshot_total - kTol);
}

TEST(LinklessRoutes, SameRouterClustersExchangeFreely) {
  // Two clusters on one router: the route exists but crosses no backbone
  // link, so only gateways and speeds constrain the exchange and no beta
  // is needed.
  platform::Platform plat;
  const auto r = plat.add_router();
  plat.add_cluster(0, 30, r, "diskless-source");   // no CPU
  plat.add_cluster(100, 50, r, "compute");
  plat.compute_shortest_path_routes();
  SteadyStateProblem problem(plat, {1.0, 0.0}, Objective::Sum);

  const int route = problem.route_id(0, 1);
  ASSERT_GE(route, 0);
  EXPECT_FALSE(problem.routes()[route].needs_beta);

  const auto bound = lp_upper_bound(problem, solve_relaxation(problem));
  EXPECT_NEAR(bound.objective, 30.0, kTol);  // source gateway binds

  const auto g = run_greedy(problem);
  const auto lprg = run_lprg(problem, solve_relaxation(problem));
  for (const auto* h : {&g, &lprg}) {
    EXPECT_TRUE(validate_allocation(problem, h->allocation).ok);
    EXPECT_NEAR(h->objective, 30.0, kTol);
    EXPECT_NEAR(h->allocation.beta(0, 1), 0.0, kTol);  // no connections used
  }
}

TEST(NpcGadget, HeuristicsStayWithinExactOptimum) {
  // The reduction platforms are adversarial (all links max-connect 1);
  // every heuristic must stay valid and below the MIS-sized optimum.
  Rng rng(41);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(3, 5));
    npc::Graph g(n);
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (rng.bernoulli(0.5)) g.add_edge(i, j);
    const auto inst = npc::build_reduction(g);
    SteadyStateProblem problem(inst.platform, inst.payoffs, Objective::MaxMin);
    const double mis = static_cast<double>(npc::maximum_independent_set(g).size());

    const auto greedy = run_greedy(problem);
    Rng coin = rng.split();
    const auto lprr = run_lprr(problem, coin);
    for (const auto* h : {&greedy, &lprr}) {
      EXPECT_TRUE(validate_allocation(problem, h->allocation, 1e-5).ok);
      EXPECT_LE(h->objective, mis + kTol);
    }
    // Greedy on this gadget is actually optimal: it opens disjoint routes
    // first-come and each succeeds or is blocked exactly as in the
    // independent-set greedy. Not asserted (not proven), but it should
    // at least find one route.
    if (mis >= 1.0) {
      EXPECT_GE(greedy.objective, 1.0 - kTol);
    }
  }
}

TEST(Validation, LprAllocationsAlwaysIntegral) {
  Rng rng(53);
  platform::GeneratorParams params;
  params.num_clusters = 6;
  params.connectivity = 0.5;
  params.mean_backbone_bw = 12;
  params.mean_max_connections = 3;
  for (int trial = 0; trial < 10; ++trial) {
    const auto plat = generate_platform(params, rng);
    std::vector<double> payoffs(plat.num_clusters());
    for (double& p : payoffs) p = rng.uniform(0.5, 1.5);
    for (Objective obj : {Objective::Sum, Objective::MaxMin}) {
      SteadyStateProblem problem(plat, payoffs, obj);
      const auto lpr = run_lpr(problem, solve_relaxation(problem));
      ASSERT_EQ(lpr.status, lp::SolveStatus::Optimal);
      EXPECT_TRUE(lpr.allocation.has_integral_betas());
      EXPECT_TRUE(validate_allocation(problem, lpr.allocation, 1e-5).ok);
    }
  }
}

TEST(DegeneratePlatforms, SingleClusterModelHasNoEmptyRows) {
  // A lone cluster routes nothing: the model must carry only the speed
  // row (no degenerate 0 <= g_k gateway rows), and every method must
  // return the local-only optimum.
  platform::Platform plat;
  plat.add_cluster(100, 50, plat.add_router());
  plat.compute_shortest_path_routes();
  for (const Objective obj : {Objective::Sum, Objective::MaxMin}) {
    SteadyStateProblem problem(plat, {1.0}, obj);
    const auto reduced = problem.build_reduced();
    for (int c = 0; c < reduced.model.num_constraints(); ++c)
      EXPECT_FALSE(reduced.model.row(c).empty()) << "row " << c;
    const int expected_rows = obj == Objective::MaxMin ? 2 : 1;  // speed (+fair)
    EXPECT_EQ(reduced.model.num_constraints(), expected_rows);
    const auto full = problem.build_full(false);
    for (int c = 0; c < full.model.num_constraints(); ++c)
      EXPECT_FALSE(full.model.row(c).empty()) << "row " << c;

    const auto g = run_greedy(problem);
    const auto lprg = run_lprg(problem, solve_relaxation(problem));
    const auto bound = lp_upper_bound(problem, solve_relaxation(problem));
    EXPECT_NEAR(g.objective, 100.0, kTol);
    EXPECT_NEAR(lprg.objective, 100.0, kTol);
    EXPECT_NEAR(bound.objective, 100.0, kTol);
    EXPECT_TRUE(validate_allocation(problem, g.allocation).ok);
  }
}

TEST(DegeneratePlatforms, DisconnectedClustersSolveLocalOnly) {
  // Four clusters, no links at all: every method degrades to purely
  // local work and the reduced model carries no gateway or link rows.
  platform::Platform plat;
  for (int i = 0; i < 4; ++i) plat.add_cluster(50.0 + 10.0 * i, 40, plat.add_router());
  plat.compute_shortest_path_routes();
  const std::vector<double> payoffs{1.0, 2.0, 1.0, 0.5};
  for (const Objective obj : {Objective::Sum, Objective::MaxMin}) {
    SteadyStateProblem problem(plat, payoffs, obj);
    const auto reduced = problem.build_reduced();
    for (int c = 0; c < reduced.model.num_constraints(); ++c)
      EXPECT_FALSE(reduced.model.row(c).empty());
    const int fair_rows = obj == Objective::MaxMin ? 4 : 0;
    EXPECT_EQ(reduced.model.num_constraints(), 4 + fair_rows);  // speed rows only

    // payoff * speed products: 50, 120, 70, 40 -> Sum 280, MaxMin 40.
    const double optimum = obj == Objective::Sum ? 280.0 : 40.0;
    const Relaxation relaxation = solve_relaxation(problem);
    for (const auto& result : {run_greedy(problem), run_lpr(problem, relaxation),
                               run_lprg(problem, relaxation)}) {
      ASSERT_EQ(result.status, lp::SolveStatus::Optimal);
      EXPECT_TRUE(validate_allocation(problem, result.allocation).ok);
      EXPECT_NEAR(result.objective, optimum, kTol);
      for (int k = 0; k < 4; ++k)
        for (int l = 0; l < 4; ++l) {
          if (k != l) {
            EXPECT_EQ(result.allocation.alpha(k, l), 0.0);
          }
        }
    }
    // The greedy's take-remaining policy additionally exhausts every
    // cluster's own speed.
    const auto g = run_greedy(problem);
    for (int k = 0; k < 4; ++k)
      EXPECT_NEAR(g.allocation.alpha(k, k), plat.cluster(k).speed, kTol);
  }
}

}  // namespace
}  // namespace dls::core
