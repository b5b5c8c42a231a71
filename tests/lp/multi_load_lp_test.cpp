// Multi-load LP behaviour under contention (ISSUE 8): symmetric loads
// fighting over one shared link must come out exactly equal under
// MaxMin, and the warm-start capsule must carry across event-sequenced
// joint solves with bit-identical optima.
#include <gtest/gtest.h>

#include <vector>

#include "core/multi_solve.hpp"
#include "core/problem.hpp"
#include "core/test_platforms.hpp"

namespace dls::core {
namespace {

constexpr double kTol = 1e-9;

TEST(MultiLoadLp, SymmetricLoadsOnSharedLinkSplitEquallyUnderMaxMin) {
  // two_symmetric_clusters: C0/C1 speed 100, gateways 50/60, one wan
  // link bw 10 x maxcon 4. Two identical loads at C0 share C0's CPU and
  // the 40-wide shipping path to C1: total 140, maxmin = 70 each.
  const platform::Platform plat = testing::two_symmetric_clusters();
  for (const int n : {2, 4}) {
    LoadSet set;
    set.loads.assign(static_cast<std::size_t>(n), LoadSpec{});
    MultiLoadSolveOptions options;
    options.objective = MultiObjective::MaxMin;
    const MultiLoadSolution sol = solve_loads(plat, set, options);
    ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
    for (int j = 0; j < n; ++j)
      EXPECT_NEAR(sol.throughput[j], 140.0 / n, kTol) << "N=" << n;
  }
}

TEST(MultiLoadLp, AsymmetricWeightsStillEqualizeWeightedThroughput) {
  // MaxMin maximizes min_j w_j x_j, so at the optimum the *weighted*
  // throughputs tie: w0 x0 == w1 x1 with x0 + x1 == 140.
  const platform::Platform plat = testing::two_symmetric_clusters();
  LoadSet set;
  set.loads.resize(2);
  set.loads[0].weight = 2.0;
  set.loads[1].weight = 1.0;
  MultiLoadSolveOptions options;
  options.objective = MultiObjective::MaxMin;
  const MultiLoadSolution sol = solve_loads(plat, set, options);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(2.0 * sol.throughput[0], 1.0 * sol.throughput[1], kTol);
  EXPECT_NEAR(sol.throughput[0] + sol.throughput[1], 140.0, kTol);
}

TEST(MultiLoadLp, WeightedSumSaturatesTheSharedCapacity) {
  const platform::Platform plat = testing::two_symmetric_clusters();
  LoadSet set;
  set.loads.resize(2);
  const MultiLoadSolution sol = solve_loads(plat, set);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.throughput[0] + sol.throughput[1], 140.0, kTol);
}

TEST(MultiLoadLp, WarmCapsuleCarriesAcrossWeightPatches) {
  // Event-sequenced joint solves: only objective weights move between
  // events, so the capsule must be reused (warm) from the second solve
  // on, and each warm optimum must equal a from-scratch cold solve of
  // the identical instance (same solver, same optimality; the vertex
  // may differ on degenerate optima, the value cannot).
  const platform::Platform plat = testing::two_symmetric_clusters();
  const std::vector<std::vector<double>> weights = {
      {1.0, 1.0}, {2.0, 1.0}, {0.5, 1.5}, {1.0, 3.0}};

  SteadyStateProblem problem(plat, [] {
    LoadSet set;
    set.loads.resize(2);
    return set;
  }(), Objective::Sum);

  lp::WarmState state;
  lp::SolveArena arena;
  auto reduced = problem.build_reduced();
  int warm_used = 0;
  for (const std::vector<double>& w : weights) {
    problem.set_load_weights(w);
    problem.update_reduced_payoffs(reduced);
    LpWarmStart warm{&state, &arena, &reduced};
    const MultiLoadSolution hot = solve_loads(problem, {}, &warm);
    const MultiLoadSolution cold = solve_loads(problem, {});
    ASSERT_EQ(hot.status, lp::SolveStatus::Optimal);
    ASSERT_EQ(cold.status, lp::SolveStatus::Optimal);
    EXPECT_NEAR(hot.objective, cold.objective, kTol * (1.0 + cold.objective));
    warm_used += hot.warm;
  }
  EXPECT_EQ(warm_used, static_cast<int>(weights.size()) - 1);
}

}  // namespace
}  // namespace dls::core
