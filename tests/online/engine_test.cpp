// Online lifecycle engine: admission/queueing semantics, conservation,
// determinism, and the warm-vs-cold throughput cross-check at the
// engine level.
#include "online/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "platform/generator.hpp"

namespace dls::online {
namespace {

platform::Platform test_platform(int k, std::uint64_t seed) {
  platform::GeneratorParams params;
  params.num_clusters = k;
  params.ensure_connected = true;
  Rng rng(seed);
  return generate_platform(params, rng);
}

Workload poisson(int k, int count, std::uint64_t seed, double rate = 2.0) {
  PoissonParams p;
  p.count = count;
  p.rate = rate;
  Rng rng(seed);
  return poisson_workload(p, k, rng);
}

TEST(OnlineEngine, CompletesEveryApplicationAndConservesWork) {
  const platform::Platform plat = test_platform(6, 3);
  const Workload wl = poisson(6, 120, 5);
  const OnlineEngine engine(plat, {});
  const OnlineReport report = engine.run(wl);
  EXPECT_EQ(report.arrivals, 120);
  EXPECT_EQ(report.completed, 120);
  EXPECT_EQ(static_cast<int>(report.apps.size()), 120);
  double total_load = 0.0;
  for (const AppArrival& a : wl.arrivals) total_load += a.load;
  EXPECT_NEAR(report.total_work, total_load, 1e-3 * total_load);
  for (const AppRecord& app : report.apps) {
    EXPECT_GE(app.admit, app.arrival - 1e-9);
    EXPECT_GT(app.depart, app.admit);
    EXPECT_LE(app.depart, report.makespan + 1e-9);
  }
  EXPECT_EQ(report.metrics.response.count(), 120u);
}

TEST(OnlineEngine, DeterministicAcrossRuns) {
  const platform::Platform plat = test_platform(8, 7);
  const Workload wl = poisson(8, 200, 9, 4.0);
  const OnlineEngine engine(plat, {});
  const OnlineReport a = engine.run(wl);
  const OnlineReport b = engine.run(wl);
  EXPECT_EQ(a.reschedules, b.reschedules);
  EXPECT_EQ(a.makespan, b.makespan);  // bit-exact
  EXPECT_EQ(a.metrics.response.mean(), b.metrics.response.mean());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].admit, b.apps[i].admit);
    EXPECT_EQ(a.apps[i].depart, b.apps[i].depart);
  }
}

TEST(OnlineEngine, FifoAdmissionPerCluster) {
  // All arrivals target cluster 0: they must be admitted in order, one
  // at a time, each admitted exactly when its predecessor departs.
  const platform::Platform plat = test_platform(4, 11);
  Workload wl;
  // Loads far larger than what drains during the arrival window, so the
  // queue builds to its full depth before the first departure.
  for (int i = 0; i < 5; ++i)
    wl.arrivals.push_back({0.1 * i, 0, 1.0, 500.0, ""});
  const OnlineEngine engine(plat, {});
  const OnlineReport report = engine.run(wl);
  ASSERT_EQ(report.completed, 5);
  EXPECT_EQ(report.peak_active, 1);
  EXPECT_EQ(report.queued_arrivals, 4);
  EXPECT_EQ(report.peak_queued, 4);
  for (int i = 1; i < 5; ++i) {
    EXPECT_GE(report.apps[i].admit, report.apps[i - 1].depart - 1e-9);
    EXPECT_NEAR(report.apps[i].admit, report.apps[i - 1].depart, 1e-9);
  }
}

TEST(OnlineEngine, QueuedArrivalDoesNotTriggerReschedule) {
  const platform::Platform plat = test_platform(4, 13);
  Workload wl;
  wl.arrivals.push_back({0.0, 0, 1.0, 100.0, ""});
  wl.arrivals.push_back({0.1, 0, 1.0, 100.0, ""});  // queues behind the first
  const OnlineEngine engine(plat, {});
  const OnlineReport report = engine.run(wl);
  // Events: admit #0 (reschedule), queued #1 (none), depart #0 + admit #1
  // (reschedule), depart #1 (no actives left: rates cleared, no solve).
  EXPECT_EQ(report.reschedules, 2);
  EXPECT_EQ(report.queued_arrivals, 1);
}

TEST(OnlineEngine, WarmAndColdBothDrainTheWholeWorkload) {
  // Engine-level companion of the rescheduler's warm==cold objective
  // cross-check. Per-event objectives are identical, but degenerate LPs
  // may have several optimal vertices, so the two *trajectories* are
  // allowed to differ — both runs must still drain every application
  // and deliver the same total work (the sum of all loads).
  const platform::Platform plat = test_platform(8, 17);
  const Workload wl = poisson(8, 150, 19, 3.0);
  OnlineOptions warm_opt;
  warm_opt.sched.method = Method::LpBound;
  warm_opt.sched.objective = core::Objective::Sum;
  warm_opt.sched.warm = WarmPolicy::Auto;
  OnlineOptions cold_opt = warm_opt;
  cold_opt.sched.warm = WarmPolicy::Never;
  const OnlineReport warm = OnlineEngine(plat, warm_opt).run(wl);
  const OnlineReport cold = OnlineEngine(plat, cold_opt).run(wl);
  EXPECT_GT(warm.warm_solves, 0);
  EXPECT_EQ(cold.warm_solves, 0);
  EXPECT_EQ(warm.completed, cold.completed);
  EXPECT_NEAR(warm.total_work, cold.total_work, 1e-6 * cold.total_work);
}

TEST(OnlineEngine, SimulatedRateModelRuns) {
  const platform::Platform plat = test_platform(5, 23);
  const Workload wl = poisson(5, 25, 29);
  OnlineOptions options;
  options.rate_model = RateModel::Simulated;
  options.sim_policy = sim::SharingPolicy::MaxMin;
  const OnlineReport report = OnlineEngine(plat, options).run(wl);
  EXPECT_EQ(report.completed, 25);
  // Work-conserving sharing can beat or trail the fluid plan, but the
  // run must still drain everything and stay deterministic.
  const OnlineReport again = OnlineEngine(plat, options).run(wl);
  EXPECT_EQ(report.makespan, again.makespan);
}

TEST(OnlineEngine, UtilizationAndFairnessAreInRange) {
  const platform::Platform plat = test_platform(6, 31);
  const Workload wl = poisson(6, 80, 37, 3.0);
  const OnlineReport report = OnlineEngine(plat, {}).run(wl);
  EXPECT_GT(report.metrics.utilization.mean(), 0.0);
  EXPECT_LE(report.metrics.utilization.mean(), 1.0 + 1e-9);
  EXPECT_GT(report.metrics.fairness.mean(), 0.0);
  EXPECT_LE(report.metrics.fairness.mean(), 1.0 + 1e-9);
  EXPECT_GE(report.metrics.wait.mean(), 0.0);
  EXPECT_GT(report.makespan, 0.0);
}

TEST(OnlineEngine, RejectsLoadsBelowEpsilonAndBadClusters) {
  const platform::Platform plat = test_platform(4, 41);
  Workload wl;
  wl.arrivals.push_back({0.0, 0, 1.0, 1e-9, ""});
  EXPECT_THROW((void)OnlineEngine(plat, {}).run(wl), Error);
  wl.arrivals.clear();
  wl.arrivals.push_back({0.0, 9, 1.0, 10.0, ""});
  EXPECT_THROW((void)OnlineEngine(plat, {}).run(wl), Error);
}

TEST(OnlineEngine, EmptyWorkloadIsANoop) {
  const platform::Platform plat = test_platform(4, 43);
  const OnlineReport report = OnlineEngine(plat, {}).run(Workload{});
  EXPECT_EQ(report.arrivals, 0);
  EXPECT_EQ(report.completed, 0);
  EXPECT_EQ(report.reschedules, 0);
  EXPECT_EQ(report.makespan, 0.0);
}

/// The rescheduler's solve series, dls_resched_solves_total, as
/// {mode, start} -> count.
std::map<std::pair<std::string, std::string>, std::uint64_t> resched_solves() {
  std::map<std::pair<std::string, std::string>, std::uint64_t> out;
  for (const char* mode : {"single", "multi"})
    for (const char* start : {"cold", "warm", "repaired"}) out[{mode, start}] = 0;
  for (const obs::SeriesSnapshot& s : obs::registry().snapshot().series) {
    if (s.name != "dls_resched_solves_total") continue;
    for (auto& [key, count] : out)
      if (s.labels == "mode=\"" + key.first + "\",start=\"" + key.second + "\"")
        count = s.counter;
  }
  return out;
}

/// Replays `options` under capacity drift (so Sum LP solves take all
/// three start kinds) and checks that exactly the `mode` solve series
/// rose, by the report's solve counts split by start kind.
void check_solve_series(const OnlineOptions& options, const std::string& mode) {
  const platform::Platform plat = test_platform(8, 53);
  const Workload wl = poisson(8, 80, 59);
  Rng trace_rng(61);
  dynamics::DriftParams drift;
  drift.horizon = 40.0;
  const dynamics::EventTrace trace = dynamics::drift_trace(plat, drift, trace_rng);
  const auto before = resched_solves();
  const OnlineReport report = OnlineEngine(plat, options).run(wl, trace);
  const auto after = resched_solves();
  ASSERT_GT(report.repaired_solves, 0);
  ASSERT_GT(report.warm_solves, report.repaired_solves);
  ASSERT_GT(report.cold_solves, 0);
  for (const auto& [key, count] : after) {
    const std::uint64_t delta = count - before.at(key);
    std::uint64_t want = 0;
    if (key.first == mode) {
      if (key.second == "cold") want = static_cast<std::uint64_t>(report.cold_solves);
      if (key.second == "warm")
        want = static_cast<std::uint64_t>(report.warm_solves - report.repaired_solves);
      if (key.second == "repaired")
        want = static_cast<std::uint64_t>(report.repaired_solves);
    }
    EXPECT_EQ(delta, want) << "mode=" << key.first << " start=" << key.second;
  }
}

TEST(OnlineEngine, SingleLoadReplayRaisesOnlyTheSingleSolveSeries) {
  OnlineOptions options;
  options.sched.method = Method::LpBound;
  options.sched.objective = core::Objective::Sum;
  check_solve_series(options, "single");
}

TEST(OnlineEngine, MultiLoadReplayRaisesOnlyTheMultiSolveSeries) {
  OnlineOptions options;
  options.multi_load = true;
  options.multi.solve.objective = core::MultiObjective::WeightedSum;
  check_solve_series(options, "multi");
}

}  // namespace
}  // namespace dls::online
