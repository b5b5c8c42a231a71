// The curated realistic platform file in data/ must stay loadable and
// schedulable — it is referenced by the README and usable from the CLI.
#include <gtest/gtest.h>

#include <fstream>

#include "core/heuristics.hpp"
#include "core/schedule.hpp"
#include "platform/serialization.hpp"
#include "sim/simulator.hpp"

#ifndef DLS_SOURCE_DIR
#define DLS_SOURCE_DIR "."
#endif

namespace dls {
namespace {

platform::Platform load_federation() {
  std::ifstream in(std::string(DLS_SOURCE_DIR) + "/data/grid_federation.platform");
  EXPECT_TRUE(static_cast<bool>(in));
  return platform::read_platform(in);
}

TEST(DataPlatform, LoadsAndValidates) {
  const platform::Platform plat = load_federation();
  EXPECT_EQ(plat.num_clusters(), 7);
  EXPECT_EQ(plat.num_routers(), 11);
  EXPECT_EQ(plat.num_links(), 10);
  EXPECT_NO_THROW(plat.validate());
  // Latencies present (v2 file): the transatlantic hop is the slowest.
  double max_latency = 0;
  for (int i = 0; i < plat.num_links(); ++i)
    max_latency = std::max(max_latency, plat.link(i).latency);
  EXPECT_GT(max_latency, 40.0);
}

TEST(DataPlatform, EndToEndScheduling) {
  platform::Platform plat = load_federation();
  plat.compute_shortest_path_routes();
  // Tsukuba's application is urgent; its site is the smallest, forcing
  // exports across the eurasia link.
  std::vector<double> payoffs(plat.num_clusters(), 1.0);
  payoffs[5] = 3.0;  // tsukuba
  const core::SteadyStateProblem problem(plat, payoffs, core::Objective::MaxMin);
  const auto bound = core::lp_upper_bound(problem, core::solve_relaxation(problem));
  const auto lprg = core::run_lprg(problem, core::solve_relaxation(problem));
  ASSERT_EQ(lprg.status, lp::SolveStatus::Optimal);
  EXPECT_TRUE(core::validate_allocation(problem, lprg.allocation, 1e-5).ok);
  EXPECT_GT(lprg.objective, 0.0);
  EXPECT_LE(lprg.objective, bound.objective * (1 + 1e-6));

  const auto sched = core::build_periodic_schedule(problem, lprg.allocation);
  EXPECT_TRUE(core::validate_schedule(problem, sched).ok);
  sim::SimOptions opt;
  opt.periods = 3;
  opt.warmup_periods = 1;
  const auto report = sim::simulate_schedule(problem, sched, opt);
  EXPECT_LE(report.worst_overrun_ratio, 1.0 + 1e-6);
}

TEST(DataPlatform, TcpBiasSlowsLongHaulFlows) {
  platform::Platform plat = load_federation();
  plat.compute_shortest_path_routes();
  std::vector<double> payoffs(plat.num_clusters(), 1.0);
  payoffs[5] = 3.0;
  const core::SteadyStateProblem problem(plat, payoffs, core::Objective::MaxMin);
  const auto lprg = core::run_lprg(problem, core::solve_relaxation(problem));
  const auto sched = core::build_periodic_schedule(problem, lprg.allocation);
  sim::SimOptions fair;
  fair.periods = 3;
  fair.warmup_periods = 0;
  fair.policy = sim::SharingPolicy::MaxMin;
  sim::SimOptions tcp = fair;
  tcp.policy = sim::SharingPolicy::TcpRttBias;
  const auto fair_report = sim::simulate_schedule(problem, sched, fair);
  const auto tcp_report = sim::simulate_schedule(problem, sched, tcp);
  // RTT bias can only stretch periods relative to unbiased sharing here.
  EXPECT_GE(tcp_report.worst_overrun_ratio, fair_report.worst_overrun_ratio - 1e-9);
}

}  // namespace
}  // namespace dls
