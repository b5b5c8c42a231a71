// Multi-load joint solves (ISSUE 8): the oracle checks. On an
// uncontended platform the joint N-load LP must reproduce each load's
// single-load optimum; canonical sets must match the original
// single-load bound; caps and data ratios must bind exactly where the
// model says they do.
#include "core/multi_solve.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/heuristics.hpp"
#include "core/problem.hpp"
#include "core/test_platforms.hpp"
#include "platform/generator.hpp"

namespace dls::core {
namespace {

constexpr double kTol = 1e-9;

/// Two disjoint source-and-workers islands: no shared link, no shared
/// CPU — the joint LP decomposes block-diagonally. Island optimum is 4
/// (see testing::source_and_two_workers: one bw-2 connection to each
/// worker, no local compute).
platform::Platform two_islands() {
  platform::Platform p;
  for (int island = 0; island < 2; ++island) {
    const std::string tag = std::to_string(island);
    const auto r0 = p.add_router("r0_" + tag);
    const auto r1 = p.add_router("r1_" + tag);
    const auto r2 = p.add_router("r2_" + tag);
    p.add_cluster(0, 10, r0, "source" + tag);
    p.add_cluster(5, 5, r1, "w1_" + tag);
    p.add_cluster(5, 5, r2, "w2_" + tag);
    p.add_backbone(r0, r1, 2, 1, "l1_" + tag);
    p.add_backbone(r0, r2, 2, 1, "l2_" + tag);
  }
  p.compute_shortest_path_routes();
  return p;
}

TEST(MultiSolve, UncontendedJointReproducesSingleLoadOptima) {
  const platform::Platform plat = two_islands();
  LoadSet joint;
  for (const int source : {0, 3}) {  // the two island sources
    LoadSpec load;
    load.source = source;
    joint.loads.push_back(load);
  }

  // Reference: each load solved alone on the same platform.
  std::vector<double> alone;
  for (const LoadSpec& load : joint.loads) {
    LoadSet one;
    one.loads.push_back(load);
    const MultiLoadSolution sol = solve_loads(plat, one);
    ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
    alone.push_back(sol.throughput[0]);
    EXPECT_NEAR(sol.throughput[0], 4.0, kTol);
  }

  for (const MultiObjective objective :
       {MultiObjective::WeightedSum, MultiObjective::MaxMin,
        MultiObjective::PropFair}) {
    MultiLoadSolveOptions options;
    options.objective = objective;
    const MultiLoadSolution sol = solve_loads(plat, joint, options);
    ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
    ASSERT_EQ(sol.throughput.size(), 2u);
    for (std::size_t j = 0; j < alone.size(); ++j)
      EXPECT_NEAR(sol.throughput[j], alone[j], kTol)
          << "objective " << to_string(objective) << ", load " << j;
  }
}

TEST(MultiSolve, CanonicalSetMatchesSingleLoadBound) {
  platform::GeneratorParams params;
  params.num_clusters = 8;
  params.ensure_connected = true;
  Rng rng(11);
  const platform::Platform plat = generate_platform(params, rng);
  const std::vector<double> payoffs = {1.0, 0.7, 1.3, 0.0, 1.0, 0.4, 2.0, 1.0};

  {
    const SteadyStateProblem single(plat, payoffs, Objective::Sum);
    const auto bound = lp_upper_bound(single, solve_relaxation(single));
    ASSERT_EQ(bound.status, lp::SolveStatus::Optimal);
    MultiLoadSolveOptions options;
    options.objective = MultiObjective::WeightedSum;
    const MultiLoadSolution sol =
        solve_loads(plat, LoadSet::from_payoffs(payoffs), options);
    ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
    EXPECT_DOUBLE_EQ(sol.objective, bound.objective);
  }
  {
    const SteadyStateProblem single(plat, payoffs, Objective::MaxMin);
    const auto bound = lp_upper_bound(single, solve_relaxation(single));
    ASSERT_EQ(bound.status, lp::SolveStatus::Optimal);
    MultiLoadSolveOptions options;
    options.objective = MultiObjective::MaxMin;
    const MultiLoadSolution sol =
        solve_loads(plat, LoadSet::from_payoffs(payoffs), options);
    ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
    EXPECT_DOUBLE_EQ(sol.objective, bound.objective);
  }
}

TEST(MultiSolve, CapBindsAggregateThroughput) {
  const platform::Platform plat = testing::single_cluster();  // optimum 100
  LoadSet set;
  LoadSpec load;
  load.source = 0;
  load.cap = 40.0;
  set.loads.push_back(load);
  const MultiLoadSolution sol = solve_loads(plat, set);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.throughput[0], 40.0, kTol);

  // A cap above the platform optimum does not bind.
  set.loads[0].cap = 400.0;
  const MultiLoadSolution loose = solve_loads(plat, set);
  ASSERT_EQ(loose.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(loose.throughput[0], 100.0, kTol);
}

TEST(MultiSolve, DataRatioScalesShippedBytes) {
  // source_and_two_workers optimum is 4, fully network-bound (bw-2
  // connection to each worker). Doubling bytes-per-unit halves it.
  const platform::Platform plat = testing::source_and_two_workers();
  LoadSet set;
  LoadSpec load;
  load.source = 0;
  load.data_ratio = 2.0;
  set.loads.push_back(load);
  const MultiLoadSolution sol = solve_loads(plat, set);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.throughput[0], 2.0, kTol);
}

TEST(MultiSolve, TwoLoadsShareOneClustersCycles) {
  // Both loads live on the single cluster: they split its 100
  // cycles/sec. MaxMin splits evenly; weighted sum totals 100.
  const platform::Platform plat = testing::single_cluster();
  LoadSet set;
  set.loads.resize(2);
  MultiLoadSolveOptions options;
  options.objective = MultiObjective::MaxMin;
  const MultiLoadSolution sol = solve_loads(plat, set, options);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.throughput[0], 50.0, kTol);
  EXPECT_NEAR(sol.throughput[1], 50.0, kTol);
}

TEST(MultiSolve, ValidateRejectsBadLoadSets) {
  const int k = 2;
  LoadSet set;
  set.loads.resize(1);
  set.loads[0].source = 5;
  EXPECT_THROW(set.validate(k), Error);

  set.loads[0].source = 0;
  set.loads[0].weight = -1.0;
  EXPECT_THROW(set.validate(k), Error);

  set.loads[0].weight = 1.0;
  set.loads[0].data_ratio = 0.0;
  EXPECT_THROW(set.validate(k), Error);

  set.loads[0].data_ratio = 1.0;
  set.loads[0].cap = -3.0;
  EXPECT_THROW(set.validate(k), Error);

  set.loads[0].cap = 1.0;
  set.loads[0].weight = 0.0;  // no positive-weight load left
  EXPECT_THROW(set.validate(k), Error);

  set.loads[0].weight = 1.0;
  EXPECT_NO_THROW(set.validate(k));
  EXPECT_THROW((void)solve_loads(testing::single_cluster(), LoadSet{}), Error);
}

TEST(MultiSolve, CanonicalDetection) {
  EXPECT_TRUE(LoadSet::from_payoffs({1.0, 2.0}).canonical(2));
  LoadSet set = LoadSet::from_payoffs({1.0, 2.0});
  set.loads[0].data_ratio = 1.5;
  EXPECT_FALSE(set.canonical(2));
  LoadSet swapped = LoadSet::from_payoffs({1.0, 2.0});
  std::swap(swapped.loads[0], swapped.loads[1]);
  EXPECT_FALSE(swapped.canonical(2));
}

}  // namespace
}  // namespace dls::core
