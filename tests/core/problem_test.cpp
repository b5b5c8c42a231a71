#include "core/problem.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "lp/simplex.hpp"
#include "platform/generator.hpp"
#include "support/rng.hpp"
#include "test_platforms.hpp"

namespace dls::core {
namespace {

constexpr double kTol = 1e-5;

TEST(Problem, RouteEnumeration) {
  const auto plat = testing::two_symmetric_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  // Local 0, local 1, 0->1, 1->0.
  EXPECT_EQ(problem.routes().size(), 4u);
  EXPECT_GE(problem.route_id(0, 0), 0);
  EXPECT_GE(problem.route_id(0, 1), 0);
  const auto& r01 = problem.routes()[problem.route_id(0, 1)];
  EXPECT_TRUE(r01.needs_beta);
  EXPECT_DOUBLE_EQ(r01.pbw, 10.0);
  const auto& r00 = problem.routes()[problem.route_id(0, 0)];
  EXPECT_FALSE(r00.needs_beta);
}

TEST(Problem, RejectsBadPayoffs) {
  const auto plat = testing::single_cluster();
  EXPECT_THROW(SteadyStateProblem(plat, {1.0, 1.0}, Objective::Sum), Error);
  EXPECT_THROW(SteadyStateProblem(plat, {-1.0}, Objective::Sum), Error);
  EXPECT_THROW(SteadyStateProblem(plat, {0.0}, Objective::Sum), Error);  // no app
}

TEST(Problem, SingleClusterOptimum) {
  const auto plat = testing::single_cluster();
  SteadyStateProblem problem(plat, {1.0}, Objective::Sum);
  const auto reduced = problem.build_reduced();
  const auto sol = lp::SimplexSolver().solve(reduced.model);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 100.0, kTol);
}

TEST(Problem, TwoClusterSumOptimum) {
  const auto plat = testing::two_symmetric_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  const auto reduced = problem.build_reduced();
  const auto sol = lp::SimplexSolver().solve(reduced.model);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 200.0, kTol);
}

TEST(Problem, TwoClusterMaxMinOptimum) {
  const auto plat = testing::two_symmetric_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::MaxMin);
  const auto reduced = problem.build_reduced();
  ASSERT_GE(reduced.t_var, 0);
  const auto sol = lp::SimplexSolver().solve(reduced.model);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 100.0, kTol);
}

TEST(Problem, SourceWorkersOptimum) {
  const auto plat = testing::source_and_two_workers();
  SteadyStateProblem problem(plat, {1.0, 0.0, 0.0}, Objective::MaxMin);
  const auto reduced = problem.build_reduced();
  const auto sol = lp::SimplexSolver().solve(reduced.model);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 4.0, kTol);  // one bw-2 connection per worker
}

TEST(Problem, PayoffWeightsScaleMaxMin) {
  // With payoffs (2, 1), MAXMIN equalizes 2*alpha_0 = alpha_1 = t, so the
  // compute budget gives alpha_0 + alpha_1 = 1.5 t <= 200 -> t <= 400/3.
  // The bound is reachable: A_0 computes 200/3 locally, A_1 computes 100
  // locally and ships 100/3 to cluster 0 (within link cap 40 and g_0 50).
  const auto plat = testing::two_symmetric_clusters();
  SteadyStateProblem problem(plat, {2.0, 1.0}, Objective::MaxMin);
  const auto sol = lp::SimplexSolver().solve(problem.build_reduced().model);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 400.0 / 3.0, kTol);
}

TEST(Problem, BetaFixingCapsAlpha) {
  const auto plat = testing::rounding_sensitive();
  SteadyStateProblem problem(plat, {1.0, 0.0}, Objective::Sum);
  const int r01 = problem.route_id(0, 1);
  ASSERT_GE(r01, 0);

  // Free: alpha_{0,1} <= gateway 6 (maxcon 3 * bw 4 = 12 not binding).
  const auto free_sol = lp::SimplexSolver().solve(problem.build_reduced().model);
  ASSERT_EQ(free_sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(free_sol.objective, 6.0, kTol);

  // Fixed beta = 1: alpha <= 4.
  const auto fixed = problem.build_reduced({{r01, 1}});
  const auto fixed_sol = lp::SimplexSolver().solve(fixed.model);
  ASSERT_EQ(fixed_sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(fixed_sol.objective, 4.0, kTol);

  // Fixed beta = 0: nothing moves.
  const auto zero_sol =
      lp::SimplexSolver().solve(problem.build_reduced({{r01, 0}}).model);
  ASSERT_EQ(zero_sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(zero_sol.objective, 0.0, kTol);
}

TEST(Problem, WithLoadsSharesRoutesAndRevalidates) {
  const auto plat = testing::two_symmetric_clusters();
  const SteadyStateProblem base(plat, {1.0, 1.0}, Objective::Sum);
  const SteadyStateProblem swapped =
      base.with_loads(LoadSet::from_payoffs({0.0, 2.0}));
  EXPECT_EQ(&swapped.routes(), &base.routes());  // shared table, no rebuild
  EXPECT_EQ(swapped.payoffs()[1], 2.0);
  EXPECT_THROW((void)base.with_loads(LoadSet::from_payoffs({0.0, 0.0})), Error);
}

TEST(Problem, UpdateReducedPayoffsMatchesFreshBuild) {
  platform::GeneratorParams params;
  params.num_clusters = 6;
  params.ensure_connected = true;
  Rng rng(3);
  const auto plat = generate_platform(params, rng);
  const SteadyStateProblem base(plat, std::vector<double>(6, 1.0),
                                Objective::Sum);
  auto cached = base.build_reduced();
  const std::vector<double> payoffs{0.0, 1.5, 0.7, 0.0, 1.0, 2.0};
  const SteadyStateProblem repayoffed =
      base.with_loads(LoadSet::from_payoffs(payoffs));
  repayoffed.update_reduced_payoffs(cached);
  const auto fresh = repayoffed.build_reduced();
  const lp::Solution a = lp::SimplexSolver().solve(cached.model);
  const lp::Solution b = lp::SimplexSolver().solve(fresh.model);
  ASSERT_EQ(a.status, lp::SolveStatus::Optimal);
  ASSERT_EQ(b.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(a.objective, b.objective, kTol);
}

TEST(Problem, UpdateReducedPayoffsRejectsFixedModels) {
  const auto plat = testing::two_symmetric_clusters();
  const SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  const int r01 = problem.route_id(0, 1);
  auto fixed = problem.build_reduced({{r01, 1}});
  // Re-payoffing would overwrite the pinned (7e) alpha caps.
  EXPECT_THROW(problem.update_reduced_payoffs(fixed), Error);
  // MaxMin models reshape per support; also rejected.
  const SteadyStateProblem maxmin(plat, {1.0, 1.0}, Objective::MaxMin);
  auto mm = maxmin.build_reduced();
  EXPECT_THROW(maxmin.update_reduced_payoffs(mm), Error);
}

TEST(Problem, FixingRejectsInvalidRoute) {
  const auto plat = testing::two_symmetric_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  const int local = problem.route_id(0, 0);
  EXPECT_THROW(problem.build_reduced({{local, 1}}), Error);  // local: no beta
  EXPECT_THROW(problem.build_reduced({{-1, 1}}), Error);
  EXPECT_THROW(problem.build_reduced({{problem.route_id(0, 1), -2}}), Error);
}

TEST(Problem, FullEqualsReducedOnHandBuilt) {
  for (Objective obj : {Objective::Sum, Objective::MaxMin}) {
    const auto plat = testing::two_symmetric_clusters();
    SteadyStateProblem problem(plat, {1.0, 1.0}, obj);
    const auto red = lp::SimplexSolver().solve(problem.build_reduced().model);
    const auto full = lp::SimplexSolver().solve(problem.build_full(false).model);
    ASSERT_EQ(red.status, lp::SolveStatus::Optimal);
    ASSERT_EQ(full.status, lp::SolveStatus::Optimal);
    EXPECT_NEAR(red.objective, full.objective, kTol);
  }
}

TEST(Problem, FullEqualsReducedOnRandomPlatforms) {
  // The beta-substitution argument (DESIGN.md): both formulations of the
  // rational relaxation have the same optimum.
  Rng rng(2025);
  platform::GeneratorParams params;
  params.num_clusters = 6;
  params.connectivity = 0.5;
  params.mean_backbone_bw = 20;
  params.mean_max_connections = 4;
  params.mean_gateway_bw = 120;
  for (int trial = 0; trial < 25; ++trial) {
    const auto plat = generate_platform(params, rng);
    std::vector<double> payoffs(plat.num_clusters(), 1.0);
    payoffs[rng.index(payoffs.size())] = 2.0;
    const Objective obj = trial % 2 == 0 ? Objective::Sum : Objective::MaxMin;
    SteadyStateProblem problem(plat, payoffs, obj);
    const auto red = lp::SimplexSolver().solve(problem.build_reduced().model);
    const auto full = lp::SimplexSolver().solve(problem.build_full(false).model);
    ASSERT_EQ(red.status, lp::SolveStatus::Optimal) << "trial " << trial;
    ASSERT_EQ(full.status, lp::SolveStatus::Optimal) << "trial " << trial;
    EXPECT_NEAR(red.objective, full.objective,
                kTol * (1.0 + std::fabs(red.objective)))
        << "trial " << trial << " obj " << to_string(obj);
  }
}

TEST(Problem, PayoffZeroClustersAreFrozen) {
  const auto plat = testing::two_symmetric_clusters();
  SteadyStateProblem problem(plat, {1.0, 0.0}, Objective::Sum);
  const auto reduced = problem.build_reduced();
  const auto sol = lp::SimplexSolver().solve(reduced.model);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  const Allocation alloc = problem.allocation_from_reduced(reduced, sol.x);
  // Cluster 1 sends nothing but may receive: optimum ships 40 over the
  // link (maxcon 4 * bw 10, gateway 50 not binding) + 100 local = 140.
  EXPECT_NEAR(sol.objective, 140.0, kTol);
  EXPECT_NEAR(alloc.total_alpha(1), 0.0, kTol);
  EXPECT_NEAR(alloc.alpha(0, 1), 40.0, kTol);
}

TEST(Problem, ObjectiveOfMatchesLpObjective) {
  const auto plat = testing::two_symmetric_clusters();
  for (Objective obj : {Objective::Sum, Objective::MaxMin}) {
    SteadyStateProblem problem(plat, {1.5, 1.0}, obj);
    const auto reduced = problem.build_reduced();
    const auto sol = lp::SimplexSolver().solve(reduced.model);
    ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
    const Allocation alloc = problem.allocation_from_reduced(reduced, sol.x);
    EXPECT_NEAR(problem.objective_of(alloc), sol.objective, kTol);
  }
}

TEST(Problem, MaxMinIgnoresZeroPayoffApps) {
  const auto plat = testing::source_and_two_workers();
  SteadyStateProblem problem(plat, {1.0, 0.0, 0.0}, Objective::MaxMin);
  Allocation alloc(3);
  alloc.set_alpha(0, 1, 2.0);
  alloc.set_beta(0, 1, 1.0);
  // min over positive-payoff apps only: alpha_0 * 1 = 2 (workers excluded).
  EXPECT_NEAR(problem.objective_of(alloc), 2.0, kTol);
}

TEST(Problem, ToStringObjectives) {
  EXPECT_EQ(to_string(Objective::Sum), "SUM");
  EXPECT_EQ(to_string(Objective::MaxMin), "MAXMIN");
}

}  // namespace
}  // namespace dls::core
