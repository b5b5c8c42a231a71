#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "core/heuristics.hpp"
#include "core/schedule.hpp"
#include "platform/generator.hpp"
#include "support/rng.hpp"

namespace dls::sim {
namespace {

using core::Objective;
using core::SteadyStateProblem;

platform::Platform single_cluster() {
  platform::Platform p;
  const auto r = p.add_router();
  p.add_cluster(100, 50, r);
  p.compute_shortest_path_routes();
  return p;
}

platform::Platform two_clusters() {
  platform::Platform p;
  const auto r0 = p.add_router();
  const auto r1 = p.add_router();
  p.add_cluster(100, 50, r0);
  p.add_cluster(100, 60, r1);
  p.add_backbone(r0, r1, 10, 4);
  p.compute_shortest_path_routes();
  return p;
}

TEST(Simulator, LocalOnlyScheduleHitsExactThroughput) {
  const auto plat = single_cluster();
  SteadyStateProblem problem(plat, {1.0}, Objective::Sum);
  core::Allocation alloc(1);
  alloc.set_alpha(0, 0, 100.0);
  const auto sched = core::build_periodic_schedule(problem, alloc);
  const auto report = simulate_schedule(problem, sched);
  EXPECT_NEAR(report.throughput[0], 100.0, 1e-6);
  EXPECT_LE(report.worst_overrun_ratio, 1.0 + 1e-9);
}

TEST(Simulator, TransferPipelineMatchesSchedule) {
  const auto plat = two_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  core::Allocation alloc(2);
  alloc.set_alpha(0, 0, 60.0);
  alloc.set_alpha(0, 1, 20.0);  // 2 connections * bw 10
  alloc.set_beta(0, 1, 2.0);
  alloc.set_alpha(1, 1, 80.0);
  ASSERT_TRUE(core::validate_allocation(problem, alloc).ok);
  const auto sched = core::build_periodic_schedule(problem, alloc);
  const auto report = simulate_schedule(problem, sched);
  EXPECT_NEAR(report.throughput[0], 80.0, 1e-6);
  EXPECT_NEAR(report.throughput[1], 80.0, 1e-6);
  EXPECT_LE(report.worst_overrun_ratio, 1.0 + 1e-9);
  EXPECT_GT(report.flows_completed, 0);
  EXPECT_GT(report.jobs_completed, 0);
}

TEST(Simulator, SaturatedLinkStillMeetsPeriod) {
  // Use all 4 connections of the backbone link, both directions.
  const auto plat = two_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  core::Allocation alloc(2);
  alloc.set_alpha(0, 1, 20.0);
  alloc.set_beta(0, 1, 2.0);
  alloc.set_alpha(1, 0, 20.0);
  alloc.set_beta(1, 0, 2.0);
  alloc.set_alpha(0, 0, 70.0);
  alloc.set_alpha(1, 1, 70.0);
  ASSERT_TRUE(core::validate_allocation(problem, alloc).ok);
  const auto sched = core::build_periodic_schedule(problem, alloc);
  const auto report = simulate_schedule(problem, sched);
  EXPECT_NEAR(report.throughput[0], 90.0, 1e-6);
  EXPECT_NEAR(report.throughput[1], 90.0, 1e-6);
  EXPECT_LE(report.worst_overrun_ratio, 1.0 + 1e-6);
}

TEST(Simulator, InfeasibleScheduleShowsOverrun) {
  // Hand-built schedule pushing 2x the cluster speed through a period.
  const auto plat = single_cluster();
  SteadyStateProblem problem(plat, {1.0}, Objective::Sum);
  core::PeriodicSchedule sched;
  sched.period = 1;
  sched.compute.push_back({0, 0, 200});  // speed is 100
  const auto report = simulate_schedule(problem, sched);
  EXPECT_GT(report.worst_overrun_ratio, 1.9);
  // Clocked throughput degrades accordingly.
  EXPECT_NEAR(report.throughput[0], 100.0, 1e-6);
}

TEST(Simulator, ZeroWorkSchedule) {
  const auto plat = single_cluster();
  SteadyStateProblem problem(plat, {1.0}, Objective::Sum);
  core::PeriodicSchedule sched;
  sched.period = 5;
  const auto report = simulate_schedule(problem, sched);
  EXPECT_EQ(report.throughput[0], 0.0);
  EXPECT_EQ(report.worst_overrun_ratio, 0.0);
}

TEST(Simulator, RejectsBadOptions) {
  const auto plat = single_cluster();
  SteadyStateProblem problem(plat, {1.0}, Objective::Sum);
  core::PeriodicSchedule sched;
  sched.period = 1;
  SimOptions opt;
  opt.periods = 0;
  EXPECT_THROW(simulate_schedule(problem, sched, opt), dls::Error);
}

// ---- period-boundary capacity revisions (ISSUE 4) --------------------------

TEST(Simulator, SpeedRevisionStretchesLaterPeriods) {
  // Local-only schedule saturating the CPU: halving the speed midway
  // must double the duration of the remaining periods.
  const auto plat = single_cluster();
  SteadyStateProblem problem(plat, {1.0}, Objective::Sum);
  core::Allocation alloc(1);
  alloc.set_alpha(0, 0, 100.0);
  const auto sched = core::build_periodic_schedule(problem, alloc);

  SimOptions opt;
  opt.warmup_periods = 0;
  opt.periods = 4;
  opt.policy = SharingPolicy::MaxMin;  // work-conserving: speed-bound
  opt.revisions.push_back(
      {2, CapacityRevision::Kind::ClusterSpeed, 0, 50.0});
  const auto degraded = simulate_schedule(problem, sched, opt);
  // Two periods at full speed (duration T), two at half (duration 2T):
  // total measured time 6T instead of 4T (clocked periods).
  SimOptions base = opt;
  base.revisions.clear();
  const auto reference = simulate_schedule(problem, sched, base);
  EXPECT_NEAR(degraded.total_time, 1.5 * reference.total_time, 1e-6);
  EXPECT_NEAR(degraded.worst_overrun_ratio, 2.0, 1e-6);
}

TEST(Simulator, LinkRevisionRepricesFlowCapsAtBoundary) {
  // Cross transfer at link bandwidth 10, 1 connection: the flow cap is
  // beta * pbw. Cutting the link to bw 2 mid-run stretches transfers.
  const auto plat = two_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  core::Allocation alloc(2);
  alloc.set_alpha(0, 0, 90.0);
  alloc.set_alpha(1, 1, 90.0);
  alloc.set_alpha(0, 1, 10.0);
  alloc.set_beta(0, 1, 1.0);
  const auto sched = core::build_periodic_schedule(problem, alloc);

  SimOptions opt;
  opt.warmup_periods = 0;
  opt.periods = 2;
  opt.policy = SharingPolicy::MaxMin;
  opt.revisions.push_back({1, CapacityRevision::Kind::LinkBw, 0, 2.0});
  const auto r = simulate_schedule(problem, sched, opt);
  // The second period's transfer runs at bw 2 instead of 10: the 10-unit
  // transfer takes 5 time units against a period of ~1.
  EXPECT_GT(r.worst_overrun_ratio, 2.0);

  // Max-connect collapse to 0 degrades via admission scaling instead of
  // deadlocking.
  SimOptions starve = opt;
  starve.revisions = {{1, CapacityRevision::Kind::LinkMaxConnect, 0, 0.0}};
  const auto starved = simulate_schedule(problem, sched, starve);
  EXPECT_GT(starved.worst_overrun_ratio, r.worst_overrun_ratio);
}

TEST(Simulator, GatewayRevisionAppliesBetweenPeriods) {
  const auto plat = two_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  core::Allocation alloc(2);
  alloc.set_alpha(0, 0, 90.0);
  alloc.set_alpha(1, 1, 90.0);
  alloc.set_alpha(0, 1, 10.0);
  alloc.set_beta(0, 1, 1.0);
  const auto sched = core::build_periodic_schedule(problem, alloc);
  SimOptions opt;
  opt.warmup_periods = 0;
  opt.periods = 3;
  opt.policy = SharingPolicy::MaxMin;
  opt.revisions.push_back({1, CapacityRevision::Kind::GatewayBw, 0, 1.0});
  const auto r = simulate_schedule(problem, sched, opt);
  EXPECT_GT(r.worst_overrun_ratio, 1.5);  // the 10-unit transfer crawls

  // Revisions must be sorted and name valid targets.
  SimOptions bad = opt;
  bad.revisions = {{2, CapacityRevision::Kind::GatewayBw, 0, 5.0},
                   {1, CapacityRevision::Kind::GatewayBw, 1, 5.0}};
  EXPECT_THROW(simulate_schedule(problem, sched, bad), dls::Error);
  bad.revisions = {{0, CapacityRevision::Kind::LinkBw, 7, 5.0}};
  EXPECT_THROW(simulate_schedule(problem, sched, bad), dls::Error);
  bad.revisions = {{0, CapacityRevision::Kind::GatewayBw, 0, -1.0}};
  EXPECT_THROW(simulate_schedule(problem, sched, bad), dls::Error);
}

/// The four sharing policies on a platform whose schedule ships load:
/// slow clusters (speed 50) behind long, uneven routes (mean latency 20,
/// heterogeneity 0.8), as `dls generate --clusters 5 --seed 11 --connected
/// --latency 20 --heterogeneity 0.8 --speed 50` builds it. Every policy
/// runs flows, and no two policies report the same execution: pacing
/// holds the period, max-min sharing does not, the RTT bias reweights
/// the flows and the window caps them.
TEST(Simulator, PoliciesDivergeOnAPlatformThatShipsLoad) {
  platform::GeneratorParams params;
  params.num_clusters = 5;
  params.ensure_connected = true;
  params.mean_latency = 20.0;
  params.heterogeneity = 0.8;
  params.cluster_speed = 50.0;
  Rng rng(11);
  const auto plat = generate_platform(params, rng);
  SteadyStateProblem problem(plat, std::vector<double>(plat.num_clusters(), 1.0),
                             Objective::MaxMin);
  const auto h = core::run_lprg(problem, core::solve_relaxation(problem));
  ASSERT_EQ(h.status, lp::SolveStatus::Optimal);
  const auto sched = core::build_periodic_schedule(problem, h.allocation);
  ASSERT_FALSE(sched.transfers.empty());

  const SharingPolicy policies[] = {SharingPolicy::Paced, SharingPolicy::MaxMin,
                                    SharingPolicy::TcpRttBias,
                                    SharingPolicy::BoundedWindow};
  std::vector<SimReport> reports;
  for (const SharingPolicy policy : policies) {
    SimOptions opt;
    opt.periods = 3;
    opt.policy = policy;
    reports.push_back(simulate_schedule(problem, sched, opt));
    EXPECT_GT(reports.back().flows_completed, 0) << static_cast<int>(policy);
  }
  EXPECT_LE(reports[0].worst_overrun_ratio, 1.0 + 1e-9);
  for (std::size_t a = 0; a < reports.size(); ++a)
    for (std::size_t b = a + 1; b < reports.size(); ++b)
      EXPECT_FALSE(reports[a].throughput == reports[b].throughput &&
                   reports[a].worst_overrun_ratio == reports[b].worst_overrun_ratio)
          << "policies " << a << " and " << b << " report the same execution";
}

/// End-to-end property: for random platforms, the full pipeline
/// (generate -> LPRG -> schedule -> simulate) under *paced* execution
/// meets the period exactly — the analytical steady-state model is
/// realizable, which is the §3.2 claim.
class PipelineRealizabilityTest : public ::testing::TestWithParam<int> {};

platform::Platform random_pipeline_platform(Rng& rng) {
  platform::GeneratorParams params;
  params.num_clusters = static_cast<int>(rng.uniform_int(3, 8));
  params.connectivity = rng.uniform(0.3, 0.8);
  params.heterogeneity = rng.uniform(0.0, 0.6);
  params.mean_gateway_bw = rng.uniform(50.0, 250.0);
  params.mean_backbone_bw = rng.uniform(5.0, 30.0);
  params.mean_max_connections = rng.uniform(2.0, 10.0);
  return generate_platform(params, rng);
}

TEST_P(PipelineRealizabilityTest, PacedLprgSchedulesExecuteOnTime) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const auto plat = random_pipeline_platform(rng);
  std::vector<double> payoffs(plat.num_clusters(), 1.0);
  for (Objective obj : {Objective::Sum, Objective::MaxMin}) {
    SteadyStateProblem problem(plat, payoffs, obj);
    const auto h = core::run_lprg(problem, core::solve_relaxation(problem));
    ASSERT_EQ(h.status, lp::SolveStatus::Optimal);
    const auto sched = core::build_periodic_schedule(problem, h.allocation);
    ASSERT_TRUE(core::validate_schedule(problem, sched).ok);
    SimOptions opt;
    opt.periods = 5;
    opt.warmup_periods = 1;
    const auto report = simulate_schedule(problem, sched, opt);
    EXPECT_LE(report.worst_overrun_ratio, 1.0 + 1e-6)
        << "K=" << plat.num_clusters() << " obj=" << to_string(obj);
    for (int k = 0; k < plat.num_clusters(); ++k)
      EXPECT_NEAR(report.throughput[k], sched.throughput(k), 1e-6);
  }
}

TEST_P(PipelineRealizabilityTest, MaxMinSharingOverrunsAreBounded) {
  // Work-conserving fair sharing may overrun T_p (a beta*pbw-capped flow
  // cannot catch up after losing early fair-share rounds) but stays
  // within a modest factor; throughput never exceeds the schedule's.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
  const auto plat = random_pipeline_platform(rng);
  std::vector<double> payoffs(plat.num_clusters(), 1.0);
  SteadyStateProblem problem(plat, payoffs, Objective::Sum);
  const auto h = core::run_lprg(problem, core::solve_relaxation(problem));
  ASSERT_EQ(h.status, lp::SolveStatus::Optimal);
  const auto sched = core::build_periodic_schedule(problem, h.allocation);
  SimOptions opt;
  opt.periods = 5;
  opt.warmup_periods = 1;
  opt.policy = SharingPolicy::MaxMin;
  const auto report = simulate_schedule(problem, sched, opt);
  EXPECT_GE(report.worst_overrun_ratio, 0.0);
  EXPECT_LE(report.worst_overrun_ratio, 2.0);  // empirical envelope
  for (int k = 0; k < plat.num_clusters(); ++k)
    EXPECT_LE(report.throughput[k], sched.throughput(k) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomPlatforms, PipelineRealizabilityTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace dls::sim
