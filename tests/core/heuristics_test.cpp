#include "core/heuristics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "platform/generator.hpp"
#include "support/rng.hpp"
#include "test_platforms.hpp"

namespace dls::core {
namespace {

constexpr double kTol = 1e-5;

// ---- deterministic scenarios --------------------------------------------

TEST(Greedy, SingleClusterTakesEverything) {
  const auto plat = testing::single_cluster();
  SteadyStateProblem problem(plat, {1.0}, Objective::Sum);
  const auto result = run_greedy(problem);
  EXPECT_NEAR(result.objective, 100.0, kTol);
  EXPECT_TRUE(validate_allocation(problem, result.allocation).ok);
  EXPECT_EQ(result.lp_solves, 0);
}

TEST(Greedy, TwoSymmetricClustersReachOptimum) {
  const auto plat = testing::two_symmetric_clusters();
  for (Objective obj : {Objective::Sum, Objective::MaxMin}) {
    SteadyStateProblem problem(plat, {1.0, 1.0}, obj);
    const auto result = run_greedy(problem);
    EXPECT_TRUE(validate_allocation(problem, result.allocation).ok);
    const double expected = obj == Objective::Sum ? 200.0 : 100.0;
    EXPECT_NEAR(result.objective, expected, kTol) << to_string(obj);
  }
}

TEST(Greedy, SourceWorkersUsesBothRoutes) {
  const auto plat = testing::source_and_two_workers();
  SteadyStateProblem problem(plat, {1.0, 0.0, 0.0}, Objective::MaxMin);
  const auto result = run_greedy(problem);
  EXPECT_TRUE(validate_allocation(problem, result.allocation).ok);
  EXPECT_NEAR(result.objective, 4.0, kTol);
  EXPECT_NEAR(result.allocation.alpha(0, 1), 2.0, kTol);
  EXPECT_NEAR(result.allocation.alpha(0, 2), 2.0, kTol);
  EXPECT_NEAR(result.allocation.beta(0, 1), 1.0, kTol);
}

TEST(Lpr, AchievesIntegerOptimumWhenBetasAlreadyIntegral) {
  const auto plat = testing::source_and_two_workers();
  SteadyStateProblem problem(plat, {1.0, 0.0, 0.0}, Objective::MaxMin);
  const auto result = run_lpr(problem, solve_relaxation(problem));
  EXPECT_EQ(result.status, lp::SolveStatus::Optimal);
  EXPECT_TRUE(validate_allocation(problem, result.allocation).ok);
  EXPECT_NEAR(result.objective, 4.0, kTol);
  EXPECT_EQ(result.lp_solves, 1);
}

TEST(Lpr, LosesFractionalBandwidth) {
  // rounding_sensitive: LP ships 6 with beta = 1.5; LPR floors to beta 1
  // and ships only 4.
  const auto plat = testing::rounding_sensitive();
  SteadyStateProblem problem(plat, {1.0, 0.0}, Objective::Sum);
  const auto bound = lp_upper_bound(problem, solve_relaxation(problem));
  EXPECT_NEAR(bound.objective, 6.0, kTol);
  const auto result = run_lpr(problem, solve_relaxation(problem));
  EXPECT_TRUE(validate_allocation(problem, result.allocation).ok);
  EXPECT_NEAR(result.objective, 4.0, kTol);
  EXPECT_NEAR(result.allocation.beta(0, 1), 1.0, kTol);
}

TEST(Lprg, ReclaimsRoundedCapacity) {
  // After LPR (beta = 1, alpha = 4) the greedy pass can open a second
  // connection (maxcon 3) and use the remaining gateway capacity 2.
  const auto plat = testing::rounding_sensitive();
  SteadyStateProblem problem(plat, {1.0, 0.0}, Objective::Sum);
  const auto result = run_lprg(problem, solve_relaxation(problem));
  EXPECT_TRUE(validate_allocation(problem, result.allocation).ok);
  EXPECT_NEAR(result.objective, 6.0, kTol);  // back to the LP bound
  EXPECT_GE(result.allocation.beta(0, 1), 2.0 - kTol);
}

TEST(Lprr, FeasibleAndDeterministicGivenSeed) {
  const auto plat = testing::rounding_sensitive();
  SteadyStateProblem problem(plat, {1.0, 0.0}, Objective::Sum);
  Rng rng_a(42), rng_b(42);
  const auto a = run_lprr(problem, rng_a);
  const auto b = run_lprr(problem, rng_b);
  EXPECT_TRUE(validate_allocation(problem, a.allocation).ok);
  EXPECT_NEAR(a.objective, b.objective, kTol);
  EXPECT_GE(a.lp_solves, 2);  // at least one fixing pass + final solve
}

TEST(Lprr, RoundsUpWhenBudgetAllows) {
  // beta_tilde = 1.5 on a maxcon-3 link: over many seeds LPRR must
  // sometimes land on 2 (objective 6) and sometimes on 1 (objective 4).
  const auto plat = testing::rounding_sensitive();
  SteadyStateProblem problem(plat, {1.0, 0.0}, Objective::Sum);
  bool saw_up = false, saw_down = false;
  for (std::uint64_t seed = 0; seed < 40 && !(saw_up && saw_down); ++seed) {
    Rng rng(seed);
    const auto r = run_lprr(problem, rng);
    EXPECT_TRUE(validate_allocation(problem, r.allocation).ok);
    if (r.objective > 5.0) saw_up = true;
    if (r.objective < 5.0) saw_down = true;
  }
  EXPECT_TRUE(saw_up);
  EXPECT_TRUE(saw_down);
}

TEST(SolveExact, MatchesHandComputedOptima) {
  {
    const auto plat = testing::source_and_two_workers();
    SteadyStateProblem problem(plat, {1.0, 0.0, 0.0}, Objective::MaxMin);
    const auto exact = solve_exact(problem);
    ASSERT_EQ(exact.status, lp::SolveStatus::Optimal);
    EXPECT_NEAR(exact.objective, 4.0, kTol);
    EXPECT_TRUE(validate_allocation(problem, exact.allocation).ok);
  }
  {
    // rounding_sensitive: integer optimum ships 6 = min(gateway 6,
    // 2 connections * bw 4 = 8).
    const auto plat = testing::rounding_sensitive();
    SteadyStateProblem problem(plat, {1.0, 0.0}, Objective::Sum);
    const auto exact = solve_exact(problem);
    ASSERT_EQ(exact.status, lp::SolveStatus::Optimal);
    EXPECT_NEAR(exact.objective, 6.0, kTol);
  }
}

// ---- randomized properties ----------------------------------------------

struct Scenario {
  platform::Platform plat;
  std::vector<double> payoffs;
};

Scenario random_scenario(Rng& rng, int num_clusters, Objective /*obj*/) {
  platform::GeneratorParams params;
  params.num_clusters = num_clusters;
  params.connectivity = rng.uniform(0.3, 0.8);
  params.heterogeneity = rng.uniform(0.0, 0.8);
  params.mean_gateway_bw = rng.uniform(40.0, 200.0);
  params.mean_backbone_bw = rng.uniform(5.0, 40.0);
  params.mean_max_connections = rng.uniform(1.0, 6.0);
  Scenario s{generate_platform(params, rng), {}};
  s.payoffs.resize(num_clusters, 1.0);
  for (double& p : s.payoffs) {
    const double u = rng.uniform01();
    p = u < 0.15 ? 0.0 : (u < 0.5 ? 1.0 : rng.uniform(0.5, 3.0));
  }
  bool any = false;
  for (double p : s.payoffs) any |= p > 0;
  if (!any) s.payoffs[0] = 1.0;
  return s;
}

class HeuristicPropertyTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HeuristicPropertyTest, AllHeuristicsValidAndBelowLpBound) {
  const auto [num_clusters, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + num_clusters);
  for (Objective obj : {Objective::Sum, Objective::MaxMin}) {
    Scenario s = random_scenario(rng, num_clusters, obj);
    SteadyStateProblem problem(s.plat, s.payoffs, obj);

    const auto bound = lp_upper_bound(problem, solve_relaxation(problem));
    ASSERT_EQ(bound.status, lp::SolveStatus::Optimal);
    // The relaxation itself satisfies everything except integrality.
    EXPECT_TRUE(validate_allocation(problem, bound.allocation, 1e-5, false).ok);

    const auto g = run_greedy(problem);
    const auto lpr = run_lpr(problem, solve_relaxation(problem));
    const auto lprg = run_lprg(problem, solve_relaxation(problem));
    Rng lprr_rng = rng.split();
    const auto lprr = run_lprr(problem, lprr_rng);

    for (const auto* r : {&g, &lpr, &lprg, &lprr}) {
      ASSERT_EQ(r->status, lp::SolveStatus::Optimal);
      const auto report = validate_allocation(problem, r->allocation, 1e-5);
      EXPECT_TRUE(report.ok)
          << (report.violations.empty() ? "?" : report.violations[0]);
      EXPECT_LE(r->objective, bound.objective + 1e-4 * (1 + bound.objective));
      EXPECT_GE(r->objective, -kTol);
    }
    // Greedy refinement can only help LPR.
    EXPECT_GE(lprg.objective, lpr.objective - kTol);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomPlatforms, HeuristicPropertyTest,
    ::testing::Combine(::testing::Values(3, 5, 8), ::testing::Range(0, 6)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "K" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

class ExactDominatesTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactDominatesTest, HeuristicsNeverBeatTheExactOptimum) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1234);
  Scenario s = random_scenario(rng, 4, Objective::Sum);
  for (Objective obj : {Objective::Sum, Objective::MaxMin}) {
    SteadyStateProblem problem(s.plat, s.payoffs, obj);
    lp::MilpOptions opt;
    opt.max_nodes = 20000;
    const auto exact = solve_exact(problem, opt);
    if (exact.status != lp::SolveStatus::Optimal) GTEST_SKIP();
    EXPECT_TRUE(validate_allocation(problem, exact.allocation, 1e-5).ok);

    const auto bound = lp_upper_bound(problem, solve_relaxation(problem));
    EXPECT_LE(exact.objective, bound.objective + 1e-4 * (1 + bound.objective));

    const auto g = run_greedy(problem);
    const auto lprg = run_lprg(problem, solve_relaxation(problem));
    Rng lprr_rng = rng.split();
    const auto lprr = run_lprr(problem, lprr_rng);
    for (const auto* r : {&g, &lprg, &lprr})
      EXPECT_LE(r->objective, exact.objective + 1e-4 * (1 + exact.objective));
  }
}

INSTANTIATE_TEST_SUITE_P(SmallRandomPlatforms, ExactDominatesTest,
                         ::testing::Range(0, 8));

TEST(LprrEqualProbability, AlsoFeasible) {
  Rng rng(7);
  Scenario s = random_scenario(rng, 5, Objective::Sum);
  SteadyStateProblem problem(s.plat, s.payoffs, Objective::Sum);
  LprrOptions options;
  options.equal_probability = true;
  Rng lprr_rng(99);
  const auto result = run_lprr(problem, lprr_rng, options);
  ASSERT_EQ(result.status, lp::SolveStatus::Optimal);
  EXPECT_TRUE(validate_allocation(problem, result.allocation, 1e-5).ok);
}

void expect_same_allocation(const Allocation& a, const Allocation& b) {
  ASSERT_EQ(a.num_clusters(), b.num_clusters());
  for (int k = 0; k < a.num_clusters(); ++k) {
    for (int l = 0; l < a.num_clusters(); ++l) {
      EXPECT_EQ(a.alpha(k, l), b.alpha(k, l)) << k << "->" << l;
      EXPECT_EQ(a.beta(k, l), b.beta(k, l)) << k << "->" << l;
    }
  }
}

TEST(LpHeuristics, RelaxationOverloadsMatchStandalone) {
  for (int num_clusters : {5, 15, 35}) {
    Rng rng(static_cast<std::uint64_t>(num_clusters) * 131);
    platform::GeneratorParams params;
    params.num_clusters = num_clusters;
    params.connectivity = 0.4;
    params.mean_backbone_bw = 20;
    params.mean_max_connections = 5;
    const auto plat = generate_platform(params, rng);
    std::vector<double> payoffs(plat.num_clusters());
    for (double& p : payoffs) p = rng.uniform(0.5, 1.5);
    for (Objective obj : {Objective::MaxMin, Objective::Sum}) {
      SCOPED_TRACE("K=" + std::to_string(num_clusters) +
                   (obj == Objective::Sum ? " sum" : " maxmin"));
      const SteadyStateProblem problem(plat, payoffs, obj);
      Relaxation solved = solve_relaxation(problem);
      // The model is owned by value, so a moved relaxation stays usable.
      const Relaxation relaxation = std::move(solved);
      ASSERT_EQ(relaxation.solution.status, lp::SolveStatus::Optimal);

      const auto bound = lp_upper_bound(problem, solve_relaxation(problem));
      const auto shared_bound = lp_upper_bound(problem, relaxation);
      EXPECT_EQ(shared_bound.objective, bound.objective);
      EXPECT_EQ(shared_bound.iterations, bound.iterations);
      expect_same_allocation(shared_bound.allocation, bound.allocation);

      const auto lpr = run_lpr(problem, solve_relaxation(problem));
      const auto shared_lpr = run_lpr(problem, relaxation);
      EXPECT_EQ(shared_lpr.objective, lpr.objective);
      EXPECT_EQ(shared_lpr.lp_solves, 1);
      expect_same_allocation(shared_lpr.allocation, lpr.allocation);

      const auto lprg = run_lprg(problem, solve_relaxation(problem));
      const auto shared_lprg = run_lprg(problem, relaxation);
      EXPECT_EQ(shared_lprg.objective, lprg.objective);
      EXPECT_EQ(shared_lprg.lp_solves, 1);
      expect_same_allocation(shared_lprg.allocation, lprg.allocation);

      // A caller's cached model is borrowed, not copied.
      const auto cached = problem.build_reduced();
      LpWarmStart warm;
      warm.reduced = &cached;
      const Relaxation borrowed = solve_relaxation(problem, {}, &warm);
      EXPECT_FALSE(borrowed.own.has_value());
      EXPECT_EQ(&borrowed.reduced(), &cached);
      EXPECT_EQ(run_lprg(problem, borrowed).objective, lprg.objective);
    }
  }
}

TEST(LpHeuristics, NonOptimalRelaxationFails) {
  const auto plat = testing::rounding_sensitive();
  const SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  // No cluster computes this much: the relaxation is infeasible.
  auto infeasible = problem.build_reduced();
  infeasible.model.add_constraint({{infeasible.alpha_var[0], 1.0}},
                                  lp::Relation::GreaterEqual, 1e9);
  LpWarmStart warm;
  warm.reduced = &infeasible;
  const Relaxation relaxation = solve_relaxation(problem, {}, &warm);
  ASSERT_NE(relaxation.solution.status, lp::SolveStatus::Optimal);

  const auto bound = lp_upper_bound(problem, relaxation);
  EXPECT_EQ(bound.status, relaxation.solution.status);
  EXPECT_EQ(bound.objective, 0.0);
  for (const HeuristicResult& r :
       {run_lpr(problem, relaxation), run_lprg(problem, relaxation)}) {
    EXPECT_EQ(r.status, relaxation.solution.status);
    EXPECT_EQ(r.objective, 0.0);
    EXPECT_EQ(r.lp_solves, 0);
    EXPECT_EQ(r.allocation.total_alpha(0), 0.0);
  }
}

TEST(Heuristics, DisconnectedPlatformStaysLocal) {
  // No links at all: every heuristic can only run locally.
  platform::Platform plat;
  const auto r0 = plat.add_router();
  const auto r1 = plat.add_router();
  plat.add_cluster(30, 10, r0);
  plat.add_cluster(70, 10, r1);
  plat.compute_shortest_path_routes();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  const auto g = run_greedy(problem);
  const auto lprg = run_lprg(problem, solve_relaxation(problem));
  EXPECT_NEAR(g.objective, 100.0, kTol);
  EXPECT_NEAR(lprg.objective, 100.0, kTol);
  EXPECT_NEAR(g.allocation.alpha(0, 0), 30.0, kTol);
  EXPECT_NEAR(g.allocation.alpha(1, 1), 70.0, kTol);
}

TEST(Heuristics, ZeroSpeedSourceDelegatesEverything) {
  const auto plat = testing::rounding_sensitive();
  SteadyStateProblem problem(plat, {1.0, 0.0}, Objective::Sum);
  const auto g = run_greedy(problem);
  EXPECT_TRUE(validate_allocation(problem, g.allocation).ok);
  EXPECT_NEAR(g.allocation.alpha(0, 0), 0.0, kTol);
  EXPECT_GT(g.allocation.alpha(0, 1), 0.0);
}

}  // namespace
}  // namespace dls::core
