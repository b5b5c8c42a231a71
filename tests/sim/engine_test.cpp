// The incremental simulation engine (sim/engine.hpp) against oracles:
// its live allocation must stay weighted-max-min fair after every event
// (progressive filling is only re-run over dirty components, so this is
// the property the component decomposition has to preserve), and the
// from-scratch rescan loop below must agree with it end to end, on
// random workloads, on pipeline-shaped ones and through simulate_schedule.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/heuristics.hpp"
#include "core/schedule.hpp"
#include "platform/generator.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace dls::sim {
namespace {

using core::Objective;
using core::SteadyStateProblem;

/// Random engine workload: resources with random capacities; items with
/// random resource subsets, caps, weights and sizes (some empty-handed
/// with only a cap, some zero-size).
struct RandomWorkload {
  std::vector<double> capacities;
  std::vector<EngineItem> items;
};

RandomWorkload random_workload(Rng& rng) {
  RandomWorkload w;
  const int num_resources = static_cast<int>(rng.uniform_int(1, 6));
  for (int r = 0; r < num_resources; ++r)
    w.capacities.push_back(rng.uniform(1.0, 100.0));
  const int num_items = static_cast<int>(rng.uniform_int(1, 30));
  for (int i = 0; i < num_items; ++i) {
    EngineItem item;
    item.size = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.1, 20.0);
    const int degree = static_cast<int>(rng.uniform_int(0, std::min(3, num_resources)));
    for (int d = 0; d < degree; ++d) {
      const int r = static_cast<int>(rng.index(w.capacities.size()));
      bool dup = false;
      for (int used : item.resources) dup |= (used == r);
      if (!dup) item.resources.push_back(r);
    }
    if (item.resources.empty() || rng.bernoulli(0.4))
      item.cap = rng.uniform(0.1, 50.0);
    if (rng.bernoulli(0.3)) item.weight = rng.uniform(0.1, 4.0);
    w.items.push_back(std::move(item));
  }
  return w;
}

/// Pipeline-shaped engine workload, the items simulate_schedule builds:
/// clusters own a gateway resource (index c) and a CPU resource (index
/// n + c); flows cross two distinct gateways under a connection cap
/// (connections * pbw) and an RTT share weight 1 / max(rtt, 1 ms), some
/// with a window cap; jobs use one CPU, some paced to a reserved rate.
RandomWorkload pipeline_workload(Rng& rng) {
  RandomWorkload w;
  const int n = static_cast<int>(rng.uniform_int(2, 7));
  for (int c = 0; c < n; ++c) w.capacities.push_back(rng.uniform(50.0, 250.0));
  for (int c = 0; c < n; ++c) w.capacities.push_back(rng.uniform(20.0, 120.0));
  const int num_flows = static_cast<int>(rng.uniform_int(1, 3 * n));
  for (int i = 0; i < num_flows; ++i) {
    EngineItem flow;
    flow.size = rng.uniform(1.0, 60.0);
    const int from = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
    const int to = (from + 1 + static_cast<int>(rng.index(static_cast<std::size_t>(n - 1)))) % n;
    flow.resources = {from, to};
    const int connections = static_cast<int>(rng.uniform_int(1, 8));
    flow.cap = connections * rng.uniform(2.0, 30.0);
    const double rtt = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.002, 0.2);
    if (rng.bernoulli(0.5)) flow.weight = 1.0 / std::max(rtt, 1e-3);
    if (rng.bernoulli(0.2))
      flow.cap = std::min(flow.cap, connections * 5.0 / std::max(rtt, 1e-3));
    w.items.push_back(std::move(flow));
  }
  for (int c = 0; c < n; ++c) {
    if (rng.bernoulli(0.2)) continue;
    EngineItem job;
    job.size = rng.uniform(1.0, 100.0);
    job.resources = {n + c};
    if (rng.bernoulli(0.3)) job.cap = job.size;  // paced: T_p = 1
    w.items.push_back(std::move(job));
  }
  return w;
}

/// The from-scratch loop the incremental engine replaced, kept as its
/// oracle: every step advances to the earliest completion at current
/// rates (an O(live) scan), batches all simultaneous completions into
/// that step and re-runs progressive filling over every live item.
PeriodStats rescan_period(const std::vector<double>& capacities,
                          const std::vector<EngineItem>& items) {
  const std::size_t n = items.size();
  std::vector<double> remaining(n), rate(n, 0.0);
  std::vector<char> alive(n, 0);
  int live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    remaining[i] = items[i].size;
    if (items[i].size > 0.0) {
      alive[i] = 1;
      ++live;
    }
  }
  PeriodStats stats;
  const auto solve_every_live = [&] {
    FairShareProblem p;
    p.capacity = capacities;
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      ids.push_back(i);
      p.entities.push_back({items[i].resources, items[i].cap, items[i].weight});
    }
    const std::vector<double> rates = max_min_fair_rates(p);
    for (std::size_t j = 0; j < ids.size(); ++j) rate[ids[j]] = rates[j];
    ++stats.full_solves;
  };
  if (live > 0) solve_every_live();
  double now = 0.0;
  while (live > 0) {
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i)
      if (alive[i] && rate[i] > 0.0) dt = std::min(dt, remaining[i] / rate[i]);
    if (!std::isfinite(dt)) {
      ADD_FAILURE() << "rescan oracle: live work with no rate";
      break;
    }
    now += dt;
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      remaining[i] -= rate[i] * dt;
      if (remaining[i] <= 1e-9 * (1.0 + rate[i])) {
        alive[i] = 0;
        --live;
        ++stats.events;
      }
    }
    if (live > 0) solve_every_live();
  }
  stats.duration = now;
  return stats;
}

/// Builds the from-scratch rate problem over the engine's live items.
FairShareProblem live_problem(const SimEngine& engine, const RandomWorkload& w,
                              std::vector<int>& live_ids) {
  FairShareProblem p;
  p.capacity = w.capacities;
  live_ids.clear();
  for (int i = 0; i < engine.num_items(); ++i) {
    if (!engine.is_live(i)) continue;
    live_ids.push_back(i);
    p.entities.push_back({w.items[i].resources, w.items[i].cap, w.items[i].weight});
  }
  return p;
}

/// Randomized property: after the initial solve and after every event,
/// the incremental engine's rates are the (unique) weighted max-min fair
/// point of the live subproblem — both by the is_max_min_fair oracle and
/// by direct comparison with a from-scratch max_min_fair_rates solve.
class EngineFairnessTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineFairnessTest, LiveRatesStayMaxMinFairAfterEveryEvent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const RandomWorkload w = random_workload(rng);
  SimEngine engine(w.capacities);
  engine.begin_period(w.items);

  std::vector<int> live_ids;
  int steps = 0;
  do {
    const FairShareProblem p = live_problem(engine, w, live_ids);
    std::vector<double> rates(live_ids.size());
    for (std::size_t j = 0; j < live_ids.size(); ++j)
      rates[j] = engine.rate(live_ids[j]);
    ASSERT_TRUE(is_max_min_fair(p, rates))
        << "after step " << steps << " with " << live_ids.size() << " live items";
    const std::vector<double> oracle = max_min_fair_rates(p);
    for (std::size_t j = 0; j < live_ids.size(); ++j)
      ASSERT_NEAR(rates[j], oracle[j], 1e-7 * (1.0 + oracle[j]))
          << "item " << live_ids[j] << " after step " << steps;
    ++steps;
  } while (engine.step().has_value());
  EXPECT_EQ(engine.num_live(), 0);
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, EngineFairnessTest,
                         ::testing::Range(0, 25));

/// The engine and the rescan oracle execute identical workloads to
/// identical completion times and event counts, and the engine never
/// needs more full progressive-filling passes than the oracle.
class EngineEquivalenceTest : public ::testing::TestWithParam<int> {};

void expect_matches_rescan(const RandomWorkload& w) {
  SimEngine engine(w.capacities);
  const PeriodStats a = engine.run_period(w.items);
  const PeriodStats b = rescan_period(w.capacities, w.items);
  EXPECT_NEAR(a.duration, b.duration, 1e-6 * (1.0 + b.duration));
  EXPECT_EQ(a.events, b.events);
  EXPECT_LE(a.full_solves, b.full_solves);
}

TEST_P(EngineEquivalenceTest, IncrementalMatchesRescan) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 11);
  expect_matches_rescan(random_workload(rng));
}

TEST_P(EngineEquivalenceTest, IncrementalMatchesRescanOnPipelineShapes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7727 + 41);
  const RandomWorkload w = pipeline_workload(rng);
  expect_matches_rescan(w);
  // Reused across periods, the engine repeats the period exactly.
  SimEngine engine(w.capacities);
  const PeriodStats first = engine.run_period(w.items);
  const PeriodStats again = engine.run_period(w.items);
  EXPECT_EQ(first.duration, again.duration);
  EXPECT_EQ(first.events, again.events);
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, EngineEquivalenceTest,
                         ::testing::Range(0, 25));

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

/// simulate_schedule's outcome recomputed from the model simulator.hpp
/// documents: per-period items built here (a gateway and a CPU resource
/// per cluster, max-connect admission scaling, connection caps, the
/// policy's cap and weight) and executed by the rescan oracle. No
/// revisions, so every period carries the same work and one oracle
/// period stands for all of them.
SimReport rescan_simulation(const SteadyStateProblem& problem,
                            const core::PeriodicSchedule& sched,
                            const SimOptions& opt) {
  const platform::Platform& plat = problem.plat();
  const int n = plat.num_clusters();
  std::vector<double> capacities(2 * static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    capacities[k] = plat.cluster(k).gateway_bw;
    capacities[n + k] = std::max(plat.cluster(k).speed, 1e-12);
  }
  std::vector<double> opened(plat.num_links(), 0.0);
  for (const core::Transfer& tr : sched.transfers)
    for (platform::LinkId li : plat.route(tr.from, tr.to)) opened[li] += tr.connections;
  const auto period = static_cast<double>(sched.period);
  const bool paced = opt.policy == SharingPolicy::Paced;

  std::vector<EngineItem> items;
  for (const core::Transfer& tr : sched.transfers) {
    EngineItem flow;
    flow.size = static_cast<double>(tr.units);
    flow.resources = {tr.from, tr.to};
    double pbw = std::numeric_limits<double>::infinity();
    for (platform::LinkId li : plat.route(tr.from, tr.to)) {
      const double budget = plat.link(li).max_connections;
      const double admitted =
          opened[li] > budget ? std::max(budget / opened[li], 1e-6) : 1.0;
      pbw = std::min(pbw, plat.link(li).bw * admitted);
    }
    if (std::isfinite(pbw)) flow.cap = tr.connections * pbw;
    const double rtt = std::max(2.0 * plat.route_latency(tr.from, tr.to), 1e-3);
    if (paced) flow.cap = std::min(flow.cap, flow.size / period);
    if (opt.policy == SharingPolicy::TcpRttBias) flow.weight = 1.0 / rtt;
    if (opt.policy == SharingPolicy::BoundedWindow)
      flow.cap = std::min(flow.cap, tr.connections * opt.window_units / rtt);
    items.push_back(std::move(flow));
  }
  for (const core::ComputeTask& ct : sched.compute) {
    EngineItem job;
    job.size = static_cast<double>(ct.units);
    job.resources = {n + ct.on_cluster};
    if (paced) job.cap = job.size / period;
    items.push_back(std::move(job));
  }

  const PeriodStats one = rescan_period(capacities, items);
  SimReport report;
  report.events = (opt.warmup_periods + opt.periods) * one.events;
  report.worst_overrun_ratio = one.duration / period;
  const double measured_time = opt.periods * std::max(one.duration, period);
  report.throughput.assign(n, 0.0);
  for (const core::ComputeTask& ct : sched.compute)
    report.throughput[ct.app] += opt.periods * static_cast<double>(ct.units);
  for (double& t : report.throughput) t /= measured_time;
  return report;
}

/// End-to-end equivalence on the real pipeline: for every policy,
/// simulate_schedule (the incremental engine over the simulator's own
/// items) agrees with the rescan oracle over the items built above.
class PipelineEngineTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelineEngineTest, SimulateScheduleAgreesAcrossEngines) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 193 + 29);
  const auto plat = random_pipeline_platform(rng);
  std::vector<double> payoffs(plat.num_clusters(), 1.0);
  SteadyStateProblem problem(plat, payoffs, Objective::Sum);
  const auto h = core::run_lprg(problem, core::solve_relaxation(problem));
  ASSERT_EQ(h.status, lp::SolveStatus::Optimal);
  const auto sched = core::build_periodic_schedule(problem, h.allocation);
  for (const SharingPolicy policy :
       {SharingPolicy::Paced, SharingPolicy::MaxMin, SharingPolicy::TcpRttBias,
        SharingPolicy::BoundedWindow}) {
    SimOptions opt;
    opt.periods = 4;
    opt.warmup_periods = 1;
    opt.policy = policy;
    const SimReport a = simulate_schedule(problem, sched, opt);
    const SimReport b = rescan_simulation(problem, sched, opt);
    EXPECT_NEAR(a.worst_overrun_ratio, b.worst_overrun_ratio,
                1e-6 * (1.0 + b.worst_overrun_ratio));
    EXPECT_EQ(a.events, b.events);
    for (int k = 0; k < plat.num_clusters(); ++k)
      EXPECT_NEAR(a.throughput[k], b.throughput[k], 1e-6 * (1.0 + b.throughput[k]));
  }
}

/// Regression for the §3.2 feasibility claim under the new engine: paced
/// execution of a valid schedule with any work in it completes *exactly*
/// at the period boundary — worst_overrun_ratio == 1 within tolerance.
TEST_P(PipelineEngineTest, PacedSchedulesCompleteExactlyAtPeriodBoundary) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 331 + 5);
  const auto plat = random_pipeline_platform(rng);
  std::vector<double> payoffs(plat.num_clusters(), 1.0);
  SteadyStateProblem problem(plat, payoffs, Objective::MaxMin);
  const auto h = core::run_lprg(problem, core::solve_relaxation(problem));
  ASSERT_EQ(h.status, lp::SolveStatus::Optimal);
  const auto sched = core::build_periodic_schedule(problem, h.allocation);
  if (sched.compute.empty() && sched.transfers.empty()) GTEST_SKIP();
  SimOptions opt;
  opt.periods = 3;
  opt.warmup_periods = 1;
  const SimReport report = simulate_schedule(problem, sched, opt);
  EXPECT_NEAR(report.worst_overrun_ratio, 1.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomPlatforms, PipelineEngineTest,
                         ::testing::Range(0, 12));

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

/// Regression: a schedule that opens more connections over a backbone
/// link than max-connect admits must not simulate as feasible. Every
/// connection on the oversubscribed link is degraded proportionally
/// (4 admitted / 6 opened), shrinking the flow's allowance from
/// beta*pbw = 60 to bw*max_connections = 40 — so 45 units overrun by
/// exactly 45/40 where the unenforced simulator ran them on time.
TEST(Simulator, OversubscribedMaxConnectionsOverruns) {
  const auto plat = two_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  core::PeriodicSchedule sched;
  sched.period = 1;
  // 45 units over 6 connections: within beta*pbw = 60 and both gateways
  // (50/60), but the link admits only 4 connections — (7d) is the sole
  // violated constraint.
  sched.transfers.push_back({0, 1, 45, 6});
  sched.compute.push_back({0, 1, 45});

  const auto validation = core::validate_schedule(problem, sched);
  EXPECT_FALSE(validation.ok);  // (7d) catches it analytically

  SimOptions opt;
  opt.periods = 2;
  opt.warmup_periods = 0;
  const SimReport report = simulate_schedule(problem, sched, opt);
  EXPECT_NEAR(report.worst_overrun_ratio, 45.0 / 40.0, 1e-6);

  // The same traffic within budget meets its period.
  sched.transfers[0] = {0, 1, 40, 4};
  ASSERT_TRUE(core::validate_schedule(problem, sched).ok);
  const SimReport ok_report = simulate_schedule(problem, sched, opt);
  EXPECT_NEAR(ok_report.worst_overrun_ratio, 1.0, 1e-6);
}

/// The bounded-window policy caps long-haul flows at
/// connections * window / rtt.
TEST(Simulator, BoundedWindowThrottlesLongRttFlows) {
  platform::Platform p;
  const auto r0 = p.add_router();
  const auto r1 = p.add_router();
  p.add_cluster(100, 50, r0);
  p.add_cluster(100, 60, r1);
  p.add_backbone(r0, r1, 10, 4, "wan", 5.0);  // one-way latency 5 => rtt 10
  p.compute_shortest_path_routes();
  SteadyStateProblem problem(p, {1.0, 1.0}, Objective::Sum);
  core::PeriodicSchedule sched;
  sched.period = 1;
  sched.transfers.push_back({0, 1, 20, 2});
  sched.compute.push_back({0, 1, 20});

  SimOptions opt;
  opt.periods = 2;
  opt.warmup_periods = 0;
  opt.policy = SharingPolicy::BoundedWindow;
  opt.window_units = 5.0;  // cap = 2 * 5 / 10 = 1 unit per time
  const SimReport throttled = simulate_schedule(problem, sched, opt);
  // The 20-unit flow needs 20 time units at rate 1 => overrun 20.
  EXPECT_NEAR(throttled.worst_overrun_ratio, 20.0, 1e-6);

  opt.window_units = 1000.0;  // window no longer binds: gateway/beta govern
  const SimReport open = simulate_schedule(problem, sched, opt);
  EXPECT_NEAR(open.worst_overrun_ratio, 1.0, 1e-6);
}

TEST(SimEngine, EmptyPeriodHasZeroDuration) {
  SimEngine engine({10.0});
  const PeriodStats stats = engine.run_period({});
  EXPECT_EQ(stats.duration, 0.0);
  EXPECT_EQ(stats.events, 0);
  EXPECT_EQ(stats.full_solves, 0);
}

TEST(SimEngine, ZeroSizeItemsCompleteWithoutEvents) {
  SimEngine engine({10.0});
  std::vector<EngineItem> items(3);
  for (auto& item : items) item.resources = {0};
  items[1].size = 5.0;
  const PeriodStats stats = engine.run_period(items);
  EXPECT_NEAR(stats.duration, 0.5, 1e-12);
  EXPECT_EQ(stats.events, 1);
}

TEST(SimEngine, RejectsInvalidItems) {
  SimEngine engine({10.0});
  std::vector<EngineItem> bad(1);
  bad[0].size = 1.0;  // no resources, no cap: unbounded rate
  EXPECT_THROW(engine.run_period(bad), Error);
  std::vector<EngineItem> out_of_range(1);
  out_of_range[0].size = 1.0;
  out_of_range[0].resources = {7};
  EXPECT_THROW(engine.run_period(out_of_range), Error);
  // A live item with cap 0 can never progress: clean error, not a hang.
  std::vector<EngineItem> stuck(1);
  stuck[0].size = 1.0;
  stuck[0].resources = {0};
  stuck[0].cap = 0.0;
  EXPECT_THROW(engine.run_period(stuck), Error);
}

/// Regression: a zero window must be rejected up front instead of
/// producing cap-0 flows that can never complete.
TEST(Simulator, RejectsZeroWindow) {
  const auto plat = two_clusters();
  SteadyStateProblem problem(plat, {1.0, 1.0}, Objective::Sum);
  core::PeriodicSchedule sched;
  sched.period = 1;
  sched.transfers.push_back({0, 1, 10, 2});
  SimOptions opt;
  opt.policy = SharingPolicy::BoundedWindow;
  opt.window_units = 0.0;
  EXPECT_THROW(simulate_schedule(problem, sched, opt), Error);
}

/// Periods reuse engine buffers; state never leaks between them.
TEST(SimEngine, ReusableAcrossPeriods) {
  SimEngine engine({10.0, 20.0});
  std::vector<EngineItem> items(2);
  items[0].size = 10.0;
  items[0].resources = {0};
  items[1].size = 10.0;
  items[1].resources = {1};
  for (int p = 0; p < 3; ++p) {
    const PeriodStats stats = engine.run_period(items);
    EXPECT_NEAR(stats.duration, 1.0, 1e-12);  // resource 0: 10 units at 10
    EXPECT_EQ(stats.events, 2);
  }
}

}  // namespace
}  // namespace dls::sim
