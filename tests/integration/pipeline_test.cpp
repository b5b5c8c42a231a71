// End-to-end integration: generate -> solve (every heuristic) -> validate
// -> reconstruct schedule -> serialize platform round-trip -> simulate.
#include <gtest/gtest.h>

#include <cmath>

#include "core/heuristics.hpp"
#include "core/schedule.hpp"
#include "platform/generator.hpp"
#include "platform/serialization.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace dls {
namespace {

using core::Objective;

struct PipelineCase {
  int num_clusters;
  Objective objective;
  std::uint64_t seed;
};

class FullPipelineTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FullPipelineTest, EveryStageConsistent) {
  const auto [num_clusters, seed_base] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed_base) * 97 + num_clusters);

  platform::GeneratorParams params;
  params.num_clusters = num_clusters;
  params.connectivity = rng.uniform(0.2, 0.8);
  params.heterogeneity = rng.uniform(0.0, 0.8);
  params.mean_gateway_bw = rng.uniform(50.0, 400.0);
  params.mean_backbone_bw = rng.uniform(10.0, 80.0);
  params.mean_max_connections = rng.uniform(2.0, 30.0);

  // Stage 1: platform generation + serialization round-trip.
  const platform::Platform plat = generate_platform(params, rng);
  ASSERT_NO_THROW(plat.validate());
  const platform::Platform plat2 = platform::from_text(platform::to_text(plat));
  ASSERT_EQ(platform::to_text(plat2), platform::to_text(plat));

  std::vector<double> payoffs(plat.num_clusters());
  for (double& p : payoffs) p = rng.uniform(0.5, 1.5);

  for (Objective obj : {Objective::Sum, Objective::MaxMin}) {
    const core::SteadyStateProblem problem(plat, payoffs, obj);

    // Stage 2: bound + heuristics, all valid and bounded by LP.
    const auto bound = core::lp_upper_bound(problem, core::solve_relaxation(problem));
    ASSERT_EQ(bound.status, lp::SolveStatus::Optimal);
    const auto g = core::run_greedy(problem);
    const auto lprg = core::run_lprg(problem, core::solve_relaxation(problem));
    Rng coin = rng.split();
    const auto lprr = core::run_lprr(problem, coin);
    for (const auto* h : {&g, &lprg, &lprr}) {
      ASSERT_EQ(h->status, lp::SolveStatus::Optimal);
      ASSERT_TRUE(core::validate_allocation(problem, h->allocation, 1e-5).ok);
      EXPECT_LE(h->objective, bound.objective * (1 + 1e-5) + 1e-6);
    }

    // Stage 3: schedule reconstruction preserves throughput (within the
    // rationalization loss) and passes the per-period validator.
    const auto sched = core::build_periodic_schedule(problem, lprg.allocation);
    ASSERT_TRUE(core::validate_schedule(problem, sched).ok);
    double sched_objective;
    {
      core::Allocation as_alloc(plat.num_clusters());
      for (const auto& t : sched.compute)
        as_alloc.add_alpha(t.app, t.on_cluster,
                           static_cast<double>(t.units) / sched.period);
      sched_objective = problem.objective_of(as_alloc);
    }
    EXPECT_LE(sched_objective, lprg.objective + 1e-9);
    EXPECT_GE(sched_objective,
              lprg.objective - plat.num_clusters() * plat.num_clusters() / 1000.0);

    // Stage 4: paced simulation executes the schedule on time.
    sim::SimOptions opt;
    opt.periods = 3;
    opt.warmup_periods = 1;
    const auto report = sim::simulate_schedule(problem, sched, opt);
    EXPECT_LE(report.worst_overrun_ratio, 1.0 + 1e-6);
    for (int k = 0; k < plat.num_clusters(); ++k)
      EXPECT_NEAR(report.throughput[k], sched.throughput(k), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, FullPipelineTest,
    ::testing::Combine(::testing::Values(2, 4, 7, 12), ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "K" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PipelineEdgeCases, IsolatedClusterAmongConnected) {
  // Three clusters; only two are linked. The isolated one still runs its
  // application locally and the pipeline holds together.
  platform::Platform plat;
  const auto r0 = plat.add_router();
  const auto r1 = plat.add_router();
  const auto r2 = plat.add_router();
  plat.add_cluster(100, 50, r0);
  plat.add_cluster(50, 50, r1);
  plat.add_cluster(70, 20, r2);
  plat.add_backbone(r0, r1, 10, 2);
  plat.compute_shortest_path_routes();
  core::SteadyStateProblem problem(plat, {1.0, 1.0, 1.0}, Objective::MaxMin);
  const auto lprg = core::run_lprg(problem, core::solve_relaxation(problem));
  ASSERT_TRUE(core::validate_allocation(problem, lprg.allocation).ok);
  // The isolated app is the bottleneck of the min: alpha_2 = 70.
  EXPECT_NEAR(lprg.objective, 70.0, 1e-5);
  const auto sched = core::build_periodic_schedule(problem, lprg.allocation);
  EXPECT_TRUE(core::validate_schedule(problem, sched).ok);
}

TEST(PipelineEdgeCases, BottleneckSharedLinkTriangle) {
  // Two sources behind one shared backbone segment to a fast worker:
  // max-connect on the shared link limits combined shipping.
  platform::Platform plat;
  const auto rs1 = plat.add_router();
  const auto rs2 = plat.add_router();
  const auto hub = plat.add_router();
  const auto rw = plat.add_router();
  plat.add_cluster(0, 100, rs1, "src1");
  plat.add_cluster(0, 100, rs2, "src2");
  plat.add_cluster(0, 1, hub, "hubsite");  // speed 0: pure transit site
  plat.add_cluster(500, 400, rw, "worker");
  plat.add_backbone(rs1, hub, 10, 2);
  plat.add_backbone(rs2, hub, 10, 2);
  plat.add_backbone(hub, rw, 10, 3);  // shared: at most 3 connections total
  plat.compute_shortest_path_routes();
  core::SteadyStateProblem problem(plat, {1.0, 1.0, 0.0, 0.0}, Objective::MaxMin);

  const auto bound = core::lp_upper_bound(problem, core::solve_relaxation(problem));
  ASSERT_EQ(bound.status, lp::SolveStatus::Optimal);
  // Shared link: 3 connections * bw 10 = 30 total, split fairly: 15 each.
  EXPECT_NEAR(bound.objective, 15.0, 1e-5);

  const auto exact = core::solve_exact(problem);
  ASSERT_EQ(exact.status, lp::SolveStatus::Optimal);
  // Integer betas: 3 connections split 2/1 -> the min app gets 10.
  EXPECT_NEAR(exact.objective, 10.0, 1e-5);

  Rng coin(5);
  const auto lprr = core::run_lprr(problem, coin);
  EXPECT_LE(lprr.objective, exact.objective + 1e-6);
  EXPECT_TRUE(core::validate_allocation(problem, lprr.allocation).ok);
}

TEST(PipelineEdgeCases, HighPriorityAppDominatesSum) {
  // With SUM and a dominant payoff, the optimum ships everything to the
  // high-payoff application's benefit; check LPRG follows.
  platform::Platform plat;
  const auto r0 = plat.add_router();
  const auto r1 = plat.add_router();
  plat.add_cluster(100, 100, r0);
  plat.add_cluster(100, 100, r1);
  plat.add_backbone(r0, r1, 20, 5);
  plat.compute_shortest_path_routes();
  core::SteadyStateProblem problem(plat, {10.0, 1.0}, Objective::Sum);
  const auto bound = core::lp_upper_bound(problem, core::solve_relaxation(problem));
  // App 0 takes its own cluster (100) plus 100 shipped into cluster 1
  // (bw 20*5 = 100 >= gateway 100): 10*200 = 2000.
  ASSERT_EQ(bound.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(bound.objective, 2000.0, 1e-4);
  const auto lprg = core::run_lprg(problem, core::solve_relaxation(problem));
  EXPECT_NEAR(lprg.objective, 2000.0, 1e-4);
  EXPECT_NEAR(lprg.allocation.alpha(0, 1), 100.0, 1e-4);
}

}  // namespace
}  // namespace dls
