#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/heuristics.hpp"
#include "platform/generator.hpp"
#include "support/rng.hpp"
#include "test_platforms.hpp"

namespace dls::core {
namespace {

TEST(Schedule, IntegerRatesGivePeriodOne) {
  const auto plat = testing::source_and_two_workers();
  SteadyStateProblem problem(plat, {1.0, 0.0, 0.0}, Objective::MaxMin);
  const auto g = run_greedy(problem);  // alpha = 2 on each route, integers
  const auto sched = build_periodic_schedule(problem, g.allocation);
  EXPECT_EQ(sched.period, 1);
  EXPECT_NEAR(sched.throughput(0), 4.0, 1e-9);
  EXPECT_TRUE(validate_schedule(problem, sched).ok);
}

TEST(Schedule, FractionalRatesUseLcmPeriod) {
  const auto plat = testing::two_symmetric_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  Allocation alloc(2);
  alloc.set_alpha(0, 0, 10.5);        // denominator 2
  alloc.set_alpha(1, 1, 1.0 / 3.0);   // denominator 3
  const auto sched = build_periodic_schedule(problem, alloc);
  EXPECT_EQ(sched.period, 6);
  EXPECT_EQ(sched.load_per_period(0), 63);
  EXPECT_EQ(sched.load_per_period(1), 2);
  EXPECT_TRUE(validate_schedule(problem, sched).ok);
}

TEST(Schedule, TransfersCarryConnections) {
  const auto plat = testing::two_symmetric_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  Allocation alloc(2);
  alloc.set_alpha(0, 1, 15.0);
  alloc.set_beta(0, 1, 2.0);
  const auto sched = build_periodic_schedule(problem, alloc);
  ASSERT_EQ(sched.transfers.size(), 1u);
  EXPECT_EQ(sched.transfers[0].from, 0);
  EXPECT_EQ(sched.transfers[0].to, 1);
  EXPECT_EQ(sched.transfers[0].connections, 2);
  EXPECT_EQ(sched.transfers[0].units, 15);
  EXPECT_TRUE(validate_schedule(problem, sched).ok);
}

TEST(Schedule, RejectsInvalidAllocation) {
  const auto plat = testing::two_symmetric_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  Allocation bad(2);
  bad.set_alpha(0, 0, 500.0);  // exceeds speed
  EXPECT_THROW(build_periodic_schedule(problem, bad), Error);
}

TEST(Schedule, ThroughputNeverExceedsAllocation) {
  Rng rng(11);
  platform::GeneratorParams params;
  params.num_clusters = 6;
  params.connectivity = 0.6;
  params.mean_backbone_bw = 15;
  params.mean_max_connections = 4;
  for (int trial = 0; trial < 20; ++trial) {
    const auto plat = generate_platform(params, rng);
    std::vector<double> payoffs(plat.num_clusters(), 1.0);
    SteadyStateProblem problem(plat, payoffs, Objective::MaxMin);
    const auto h = run_lprg(problem, solve_relaxation(problem));
    ASSERT_EQ(h.status, lp::SolveStatus::Optimal);
    const auto sched = build_periodic_schedule(problem, h.allocation);
    EXPECT_TRUE(validate_schedule(problem, sched).ok) << "trial " << trial;
    for (int k = 0; k < plat.num_clusters(); ++k) {
      const double scheduled = sched.throughput(k);
      const double allocated = h.allocation.total_alpha(k);
      EXPECT_LE(scheduled, allocated + 1e-9);
      // Loss below K / max_denominator per application.
      EXPECT_GE(scheduled, allocated - plat.num_clusters() / 1000.0 - 1e-9);
    }
  }
}

TEST(Schedule, TighterDenominatorBoundLosesMoreThroughput) {
  const auto plat = testing::two_symmetric_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  Allocation alloc(2);
  alloc.set_alpha(0, 0, 99.9137);
  ScheduleOptions coarse;
  coarse.max_denominator = 10;
  ScheduleOptions fine;
  fine.max_denominator = 100000;
  const auto sc = build_periodic_schedule(problem, alloc, coarse);
  const auto sf = build_periodic_schedule(problem, alloc, fine);
  EXPECT_LE(sc.throughput(0), alloc.alpha(0, 0) + 1e-12);
  EXPECT_LE(sf.throughput(0), alloc.alpha(0, 0) + 1e-12);
  EXPECT_GE(sf.throughput(0), sc.throughput(0));
  EXPECT_NEAR(sf.throughput(0), 99.9137, 1e-4);
}

TEST(Schedule, CommonDenominatorFallbackBoundsPeriod) {
  // Many awkward rates whose lcm would blow past max_period.
  const int n = 8;
  platform::Platform plat;
  for (int i = 0; i < n; ++i) {
    const auto r = plat.add_router();
    plat.add_cluster(1000, 10, r);
  }
  plat.compute_shortest_path_routes();
  SteadyStateProblem problem(plat, std::vector<double>(n, 1.0), Objective::Sum);
  Allocation alloc(n);
  // Rates 1/p for distinct primes: lcm = product of primes = huge.
  const int primes[] = {997, 991, 983, 977, 971, 967, 953, 947};
  for (int i = 0; i < n; ++i) alloc.set_alpha(i, i, 1.0 / primes[i]);
  ScheduleOptions opt;
  opt.max_denominator = 1000;
  opt.max_period = 1'000'000;  // forces the fallback
  const auto sched = build_periodic_schedule(problem, alloc, opt);
  EXPECT_EQ(sched.period, 1000);
  EXPECT_TRUE(validate_schedule(problem, sched).ok);
}

TEST(Schedule, FallbackFloorsStrictlyAtIntegerBoundaries) {
  // Regression: the common-denominator fallback used to compute
  // floor(a * period + 1e-9), which rounds a rate sitting within epsilon
  // *below* an integer up — violating the round-down capacity invariant
  // (DESIGN.md section 4). The boundary rate here is 5/period minus
  // 1e-13: the old code scheduled 5 units (throughput above the
  // allocation), the strict floor schedules 4.
  const int n = 2;
  platform::Platform plat;
  for (int i = 0; i < n; ++i) {
    const auto r = plat.add_router();
    plat.add_cluster(1000, 10, r);
  }
  plat.compute_shortest_path_routes();
  SteadyStateProblem problem(plat, std::vector<double>(n, 1.0), Objective::Sum);
  Allocation alloc(n);
  alloc.set_alpha(0, 0, 1.0 / 997.0);  // prime denominator forces the fallback
  const double boundary = (5.0 - 1e-10) / 1000.0;  // a * 1000 = 5 - 1e-10
  alloc.set_alpha(1, 1, boundary);
  ScheduleOptions opt;
  opt.max_denominator = 1000;
  opt.max_period = 500;  // lcm(997, ...) cannot fit: fallback engages
  const auto sched = build_periodic_schedule(problem, alloc, opt);
  ASSERT_EQ(sched.period, 1000);
  EXPECT_EQ(sched.load_per_period(1), 4);  // floor, not round-to-nearest
  EXPECT_LE(sched.throughput(1), boundary);
  EXPECT_TRUE(validate_schedule(problem, sched).ok);
}

TEST(Schedule, ConnectionsFollowScheduledRateNotRelaxedBeta) {
  // Regression: connection counts used to be llround(beta). With the
  // relaxed (fractional) betas of an LP-bound allocation summing to the
  // link budget, nearest-rounding pushed the per-period counts past
  // max-connect (7d) and validate_schedule rejected the reconstruction.
  // The counts must instead be the least number of connections that
  // sustains the *scheduled* rate.
  const auto plat = testing::two_symmetric_clusters();  // bw 10, maxcon 4
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  Allocation alloc(2);
  alloc.set_alpha(0, 1, 9.0);   // needs ceil(9/10)  = 1 connection
  alloc.set_beta(0, 1, 1.5);    // llround would take 2
  alloc.set_alpha(1, 0, 14.0);  // needs ceil(14/10) = 2 connections
  alloc.set_beta(1, 0, 2.5);    // llround would take 3 -> 5 > maxcon 4
  ASSERT_TRUE(validate_allocation(problem, alloc, 1e-6,
                                  /*require_integer_betas=*/false)
                  .ok);
  const auto sched = build_periodic_schedule(problem, alloc);
  ASSERT_EQ(sched.transfers.size(), 2u);
  for (const Transfer& t : sched.transfers) {
    const double pbw = plat.route_bottleneck_bw(t.from, t.to);
    const int needed = static_cast<int>(std::ceil(
        static_cast<double>(t.units) /
            (static_cast<double>(sched.period) * pbw) -
        1e-9));
    EXPECT_EQ(t.connections, std::max(1, needed));
  }
  EXPECT_TRUE(validate_schedule(problem, sched).ok)
      << "llround-derived counts would exceed the (7d) budget here";
}

TEST(Schedule, RateBeyondFlooredBetaIsRoundedDown) {
  // A rate that genuinely needs ceil(beta) connections cannot have them
  // when the fractional betas sum to the link budget: ceil(2.5) +
  // ceil(1.5) = 5 > maxcon 4. The reconstruction must instead round the
  // connections down to floor(beta) (whose sum always fits the budget)
  // and clip the shipped units to what those connections sustain — the
  // LPR treatment of fractional betas — rather than return a schedule
  // that validate_schedule rejects.
  const auto plat = testing::two_symmetric_clusters();  // bw 10, maxcon 4
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  Allocation alloc(2);
  alloc.set_alpha(0, 1, 25.0);  // needs 3 connections, beta grants 2
  alloc.set_beta(0, 1, 2.5);
  alloc.set_alpha(1, 0, 15.0);  // needs 2 connections, beta grants 1
  alloc.set_beta(1, 0, 1.5);
  ASSERT_TRUE(validate_allocation(problem, alloc, 1e-6,
                                  /*require_integer_betas=*/false)
                  .ok);
  const auto sched = build_periodic_schedule(problem, alloc);
  EXPECT_TRUE(validate_schedule(problem, sched).ok);
  ASSERT_EQ(sched.transfers.size(), 2u);
  for (const Transfer& t : sched.transfers) {
    const double cap =
        t.connections * plat.route_bottleneck_bw(t.from, t.to) *
        static_cast<double>(sched.period);
    EXPECT_LE(static_cast<double>(t.units), cap + 1e-9);
  }
  // Connections rounded down to the granted whole ones, units clipped.
  EXPECT_EQ(sched.transfers[0].connections, 2);
  EXPECT_EQ(sched.transfers[0].units, 20);
  EXPECT_EQ(sched.transfers[1].connections, 1);
  EXPECT_EQ(sched.transfers[1].units, 10);
}

TEST(Schedule, ValidateCatchesOverloadedPeriod) {
  const auto plat = testing::two_symmetric_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  PeriodicSchedule sched;
  sched.period = 2;
  sched.compute.push_back({0, 0, 500});  // 250/unit > speed 100
  const auto report = validate_schedule(problem, sched);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.violations[0].find("(7b)"), std::string::npos);
}

TEST(Schedule, ValidateCatchesConnectionOveruse) {
  const auto plat = testing::two_symmetric_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  PeriodicSchedule sched;
  sched.period = 1;
  sched.transfers.push_back({0, 1, 10, 9});  // maxcon is 4
  const auto report = validate_schedule(problem, sched);
  ASSERT_FALSE(report.ok);
  bool saw = false;
  for (const auto& v : report.violations) saw |= v.find("(7d)") != std::string::npos;
  EXPECT_TRUE(saw);
}

TEST(Schedule, ValidateCatchesBandwidthOveruse) {
  const auto plat = testing::two_symmetric_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  PeriodicSchedule sched;
  sched.period = 1;
  sched.transfers.push_back({0, 1, 25, 2});  // 2 conns * bw 10 < 25
  const auto report = validate_schedule(problem, sched);
  ASSERT_FALSE(report.ok);
  bool saw = false;
  for (const auto& v : report.violations) saw |= v.find("(7e)") != std::string::npos;
  EXPECT_TRUE(saw);
}

TEST(Schedule, ValidateCatchesBadEndpoints) {
  const auto plat = testing::two_symmetric_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  PeriodicSchedule sched;
  sched.period = 1;
  sched.transfers.push_back({0, 0, 5, 1});
  EXPECT_FALSE(validate_schedule(problem, sched).ok);
  PeriodicSchedule sched2;
  sched2.period = 0;
  EXPECT_FALSE(validate_schedule(problem, sched2).ok);
}

}  // namespace
}  // namespace dls::core
