// ServeEngine: the daemon's face of the multi-load event core that
// OnlineEngine::run replays in batch. The load-bearing assertions are
// the cross-checks — replaying a workload through the call API
// (arrive/apply_event/advance_to) yields BIT-identical per-app records
// and counters to the batch engine, on tie-free and on tied input — plus
// admission control and churn semantics the batch engine does not have.
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "dynamics/events.hpp"
#include "online/engine.hpp"
#include "online/workload.hpp"
#include "platform/generator.hpp"
#include "support/error.hpp"

namespace dls::serve {
namespace {

platform::Platform test_platform(int k, std::uint64_t seed) {
  platform::GeneratorParams params;
  params.num_clusters = k;
  params.ensure_connected = true;
  Rng rng(seed);
  return generate_platform(params, rng);
}

online::Workload poisson(int k, int count, std::uint64_t seed,
                         double rate = 2.0) {
  online::PoissonParams p;
  p.count = count;
  p.rate = rate;
  Rng rng(seed);
  return online::poisson_workload(p, k, rng);
}

/// Feeds a workload through a ServeEngine the way the daemon's replay
/// pump does: every arrival at its exact time, then drain to the end.
void replay(ServeEngine& engine, const online::Workload& wl) {
  for (const online::AppArrival& a : wl.arrivals)
    (void)engine.arrive(a.time, a.cluster, a.payoff, a.load, a.name);
  while (std::isfinite(engine.next_completion()))
    engine.advance_to(engine.next_completion());
}

TEST(ServeEngine, MatchesRunMultiBitExactly) {
  const platform::Platform plat = test_platform(5, 3);
  const online::Workload wl = poisson(5, 60, 7, 3.0);

  online::OnlineOptions batch_options;
  batch_options.multi_load = true;
  const online::OnlineEngine batch(plat, batch_options);
  const online::OnlineReport want = batch.run(wl, {});

  ServeEngine engine(plat, {});
  replay(engine, wl);

  const EngineCounters& c = engine.counters();
  EXPECT_EQ(c.admitted, static_cast<std::uint64_t>(want.arrivals));
  EXPECT_EQ(c.completed, static_cast<std::uint64_t>(want.completed));
  EXPECT_EQ(c.reschedules, static_cast<std::uint64_t>(want.reschedules));
  EXPECT_EQ(c.warm_solves, static_cast<std::uint64_t>(want.warm_solves));
  EXPECT_EQ(c.cold_solves, static_cast<std::uint64_t>(want.cold_solves));
  EXPECT_EQ(c.peak_active, want.peak_active);

  ASSERT_EQ(engine.apps().size(), want.apps.size());
  for (std::size_t i = 0; i < want.apps.size(); ++i) {
    const online::AppRecord& got = engine.apps()[i];
    EXPECT_EQ(got.admit, want.apps[i].admit);        // bit-exact
    EXPECT_EQ(got.depart, want.apps[i].depart);      // bit-exact
    EXPECT_EQ(got.slowdown, want.apps[i].slowdown);  // bit-exact
    EXPECT_EQ(got.outcome, want.apps[i].outcome);
  }
  EXPECT_EQ(engine.metrics().response.mean(), want.metrics.response.mean());
  EXPECT_EQ(engine.metrics().utilization.mean(),
            want.metrics.utilization.mean());
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Same cross-check, but on input full of ties: bursts of arrivals
/// sharing one timestamp, and a platform trace whose capacity event,
/// cluster leave and cluster join land on burst times. The tie order
/// (completions, then platform events, then arrivals, then one
/// reschedule per virtual time) must match the batch engine exactly.
TEST(ServeEngine, MatchesRunMultiOnTiedArrivalsAndEvents) {
  constexpr int kClusters = 6;
  const platform::Platform plat = test_platform(kClusters, 3);
  online::Workload wl;
  for (int burst = 0; burst < 8; ++burst)
    for (int j = 0; j < 3; ++j)
      wl.arrivals.push_back({5.0 * burst, (burst + 2 * j) % kClusters,
                             1.0 + j, 150.0 + 100.0 * j, ""});
  dynamics::EventTrace trace;
  {
    dynamics::PlatformEvent ev;
    ev.time = 10.0;
    ev.kind = dynamics::EventKind::GatewayBandwidth;
    ev.target = 1;
    ev.value = 0.5 * plat.cluster(1).gateway_bw;
    trace.events.push_back(ev);
    ev.time = 20.0;
    ev.kind = dynamics::EventKind::ClusterLeave;
    ev.target = 2;
    ev.value = 0.0;
    trace.events.push_back(ev);
    ev.time = 30.0;
    ev.kind = dynamics::EventKind::ClusterJoin;
    trace.events.push_back(ev);
  }

  online::OnlineOptions batch_options;
  batch_options.multi_load = true;
  const online::OnlineReport want =
      online::OnlineEngine(plat, batch_options).run(wl, trace);
  ASSERT_GT(want.aborted + want.rejected, 0);

  // Replay through the call API in the batch tie order: each call first
  // advances virtual time, which fires the completions due by then.
  ServeEngine engine(plat, {});
  std::size_t next_event = 0;
  for (const online::AppArrival& a : wl.arrivals) {
    while (next_event < trace.events.size() &&
           trace.events[next_event].time <= a.time) {
      const dynamics::PlatformEvent& ev = trace.events[next_event++];
      (void)engine.apply_event(ev.time, ev);
    }
    (void)engine.arrive(a.time, a.cluster, a.payoff, a.load, a.name);
  }
  while (std::isfinite(engine.next_completion()))
    engine.advance_to(engine.next_completion());

  const EngineCounters& c = engine.counters();
  EXPECT_EQ(c.arrivals, static_cast<std::uint64_t>(want.arrivals));
  EXPECT_EQ(c.completed, static_cast<std::uint64_t>(want.completed));
  EXPECT_EQ(c.aborted_churn, static_cast<std::uint64_t>(want.aborted));
  EXPECT_EQ(c.rejected_absent, static_cast<std::uint64_t>(want.rejected));
  EXPECT_EQ(c.platform_events,
            static_cast<std::uint64_t>(want.platform_events));
  EXPECT_EQ(c.reschedules, static_cast<std::uint64_t>(want.reschedules));
  EXPECT_EQ(c.warm_solves, static_cast<std::uint64_t>(want.warm_solves));
  EXPECT_EQ(c.cold_solves, static_cast<std::uint64_t>(want.cold_solves));
  EXPECT_EQ(c.repaired_solves,
            static_cast<std::uint64_t>(want.repaired_solves));
  EXPECT_EQ(c.peak_active, want.peak_active);

  ASSERT_EQ(engine.apps().size(), want.apps.size());
  for (std::size_t i = 0; i < want.apps.size(); ++i) {
    const online::AppRecord& got = engine.apps()[i];
    const online::AppRecord& exp = want.apps[i];
    EXPECT_EQ(got.id, exp.id) << "app " << i;
    EXPECT_EQ(got.cluster, exp.cluster) << "app " << i;
    EXPECT_EQ(bits(got.payoff), bits(exp.payoff)) << "app " << i;
    EXPECT_EQ(bits(got.load), bits(exp.load)) << "app " << i;
    EXPECT_EQ(bits(got.arrival), bits(exp.arrival)) << "app " << i;
    EXPECT_EQ(bits(got.admit), bits(exp.admit)) << "app " << i;
    EXPECT_EQ(bits(got.depart), bits(exp.depart)) << "app " << i;
    EXPECT_EQ(bits(got.slowdown), bits(exp.slowdown)) << "app " << i;
    EXPECT_EQ(got.outcome, exp.outcome) << "app " << i;
  }
  EXPECT_EQ(bits(engine.metrics().response.mean()),
            bits(want.metrics.response.mean()));
  EXPECT_EQ(bits(engine.metrics().utilization.mean()),
            bits(want.metrics.utilization.mean()));
  EXPECT_EQ(bits(engine.metrics().fairness.mean()),
            bits(want.metrics.fairness.mean()));
}

TEST(ServeEngine, DeterministicAcrossRuns) {
  const platform::Platform plat = test_platform(6, 11);
  const online::Workload wl = poisson(6, 80, 13, 4.0);
  EngineCounters a, b;
  double depart_sum_a = 0.0, depart_sum_b = 0.0;
  {
    ServeEngine engine(plat, {});
    replay(engine, wl);
    a = engine.counters();
    for (const online::AppRecord& r : engine.apps()) depart_sum_a += r.depart;
  }
  {
    ServeEngine engine(plat, {});
    replay(engine, wl);
    b = engine.counters();
    for (const online::AppRecord& r : engine.apps()) depart_sum_b += r.depart;
  }
  EXPECT_EQ(a.reschedules, b.reschedules);
  EXPECT_EQ(a.warm_solves, b.warm_solves);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(depart_sum_a, depart_sum_b);  // bit-exact
}

TEST(ServeEngine, MaxLoadsBudgetRejectsOverload) {
  const platform::Platform plat = test_platform(4, 5);
  EngineOptions options;
  options.max_loads = 2;
  ServeEngine engine(plat, options);
  EXPECT_EQ(engine.arrive(0.0, 0, 1.0, 1e5).admit, Admit::Admitted);
  EXPECT_EQ(engine.arrive(0.1, 1, 1.0, 1e5).admit, Admit::Admitted);
  const ServeEngine::ArriveResult r = engine.arrive(0.2, 2, 1.0, 1e5);
  EXPECT_EQ(r.admit, Admit::RejectedOverload);
  EXPECT_EQ(r.id, -1);
  EXPECT_EQ(engine.active_count(), 2);
  EXPECT_EQ(engine.counters().rejected_overload, 1u);
  // A departure frees a seat.
  EXPECT_TRUE(engine.depart(0.3, 0));
  EXPECT_EQ(engine.arrive(0.4, 2, 1.0, 1e5).admit, Admit::Admitted);
}

TEST(ServeEngine, DrainingRejectsArrivalsButFinishesActiveLoads) {
  const platform::Platform plat = test_platform(4, 5);
  ServeEngine engine(plat, {});
  const int id = engine.arrive(0.0, 0, 1.0, 1000.0).id;
  ASSERT_GE(id, 0);
  engine.begin_drain();
  EXPECT_EQ(engine.arrive(1.0, 1, 1.0, 1000.0).admit, Admit::RejectedDraining);
  EXPECT_EQ(engine.counters().rejected_draining, 1u);
  const double t_done = engine.next_completion();
  ASSERT_TRUE(std::isfinite(t_done));
  engine.advance_to(t_done);
  EXPECT_EQ(engine.active_count(), 0);
  EXPECT_EQ(engine.counters().completed, 1u);
}

TEST(ServeEngine, ClusterChurnAbortsAndRejects) {
  const platform::Platform plat = test_platform(4, 5);
  ServeEngine engine(plat, {});
  (void)engine.arrive(0.0, 0, 1.0, 1e6);
  (void)engine.arrive(0.0, 1, 1.0, 1e6);

  dynamics::PlatformEvent leave;
  leave.time = 1.0;
  leave.kind = dynamics::EventKind::ClusterLeave;
  leave.target = 0;
  engine.apply_event(1.0, leave);
  EXPECT_EQ(engine.counters().aborted_churn, 1u);
  EXPECT_EQ(engine.active_count(), 1);
  EXPECT_EQ(engine.apps()[0].outcome, online::AppOutcome::AbortedChurn);

  // Arrivals homed on the missing cluster are rejected, not queued.
  EXPECT_EQ(engine.arrive(2.0, 0, 1.0, 1000.0).admit, Admit::RejectedAbsent);
  EXPECT_EQ(engine.counters().rejected_absent, 1u);

  dynamics::PlatformEvent join;
  join.time = 3.0;
  join.kind = dynamics::EventKind::ClusterJoin;
  join.target = 0;
  engine.apply_event(3.0, join);
  EXPECT_EQ(engine.arrive(4.0, 0, 1.0, 1000.0).admit, Admit::Admitted);
}

TEST(ServeEngine, CancelledLoadsLeaveTheSchedule) {
  const platform::Platform plat = test_platform(4, 9);
  ServeEngine engine(plat, {});
  const int a = engine.arrive(0.0, 0, 1.0, 1e6).id;
  const int b = engine.arrive(0.0, 1, 1.0, 1000.0).id;
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  EXPECT_TRUE(engine.depart(0.5, a));
  EXPECT_FALSE(engine.depart(0.6, a));  // already gone
  EXPECT_EQ(engine.apps()[static_cast<std::size_t>(a)].outcome,
            online::AppOutcome::Cancelled);
  engine.advance_to(engine.next_completion());
  EXPECT_EQ(engine.counters().completed, 1u);
  EXPECT_EQ(engine.counters().cancelled, 1u);
  EXPECT_EQ(engine.apps()[static_cast<std::size_t>(b)].outcome,
            online::AppOutcome::Completed);
}

TEST(ServeEngine, RejectsInvalidArguments) {
  const platform::Platform plat = test_platform(3, 1);
  ServeEngine engine(plat, {});
  EXPECT_THROW((void)engine.arrive(0.0, -1, 1.0, 100.0), Error);
  EXPECT_THROW((void)engine.arrive(0.0, 99, 1.0, 100.0), Error);
  EXPECT_THROW((void)engine.arrive(0.0, 0, 0.0, 100.0), Error);
  EXPECT_THROW((void)engine.arrive(0.0, 0, 1.0, 0.0), Error);
}

}  // namespace
}  // namespace dls::serve
