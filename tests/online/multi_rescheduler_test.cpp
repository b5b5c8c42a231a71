// MultiLoadRescheduler (ISSUE 8): the shared-LP warm patches must reach
// the same optima as cold re-solves at every arrival/departure event,
// survive slot growth, and stay correct while a platform-event trace
// churns capacities and topology under the LP.
#include "online/rescheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/heuristics.hpp"
#include "dynamics/dynamic_platform.hpp"
#include "dynamics/events.hpp"
#include "platform/generator.hpp"

namespace dls::online {
namespace {

constexpr double kTol = 1e-7;

platform::Platform test_platform(int k, std::uint64_t seed) {
  platform::GeneratorParams params;
  params.num_clusters = k;
  params.ensure_connected = true;
  Rng rng(seed);
  return generate_platform(params, rng);
}

/// Arrival/departure/replacement churn that keeps ~target loads active.
/// Replacement steps (a departure and an arrival between two reschedules)
/// keep the active count constant — those are the events where the
/// max-min LP, whose shape is a function of the count, can warm-start.
std::vector<std::vector<ActiveLoad>> churn_sequence(int k, int steps,
                                                    double target,
                                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ActiveLoad> active;
  int next_id = 0;
  std::vector<std::vector<ActiveLoad>> seq;
  for (int s = 0; s < steps; ++s) {
    const bool replace = !active.empty() && rng.uniform01() < 0.3;
    const bool arrive =
        active.empty() ||
        rng.uniform(0.0, target) > static_cast<double>(active.size());
    if (replace || arrive) {
      ActiveLoad load;
      load.id = next_id++;
      load.cluster = static_cast<int>(rng.uniform_int(0, k - 1));
      load.weight = rng.uniform(0.5, 1.5);
      if (replace) {
        const std::size_t victim = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
        active[victim] = load;
      } else {
        active.push_back(load);
      }
    } else {
      const std::size_t victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
      active[victim] = active.back();
      active.pop_back();
    }
    if (!active.empty()) seq.push_back(active);
  }
  return seq;
}

void check_warm_equals_cold(core::MultiObjective objective, double rel_tol) {
  const platform::Platform plat = test_platform(8, 31);
  MultiReschedulerOptions warm_opt;
  warm_opt.solve.objective = objective;
  MultiReschedulerOptions cold_opt = warm_opt;
  cold_opt.warm = WarmPolicy::Never;
  MultiLoadRescheduler warm(plat, warm_opt), cold(plat, cold_opt);
  int warm_used = 0;
  for (const auto& loads : churn_sequence(8, 60, 5.0, 13)) {
    const MultiReschedule rw = warm.reschedule(loads);
    const MultiReschedule rc = cold.reschedule(loads);
    EXPECT_NEAR(rw.objective, rc.objective,
                kTol + rel_tol * (1.0 + std::fabs(rc.objective)));
    ASSERT_EQ(rw.rate.size(), loads.size());
    warm_used += rw.warm;
    EXPECT_FALSE(rc.warm);
  }
  EXPECT_GT(warm_used, 0);
}

TEST(MultiRescheduler, WarmMatchesColdWeightedSum) {
  check_warm_equals_cold(core::MultiObjective::WeightedSum, kTol);
}

TEST(MultiRescheduler, WarmMatchesColdMaxMin) {
  check_warm_equals_cold(core::MultiObjective::MaxMin, kTol);
}

TEST(MultiRescheduler, WarmMatchesColdPropFair) {
  // PropFair's round-1 vertex seeds the linearization point, so warm
  // and cold trajectories may converge from different degenerate
  // vertices of the same round-1 optimum — a small relative band on the
  // converged log objective instead of LP-exact equality.
  check_warm_equals_cold(core::MultiObjective::PropFair, 1e-4);
}

TEST(MultiRescheduler, SlotUniverseGrowsGeometricallyAndStaysCorrect) {
  const platform::Platform plat = test_platform(4, 7);
  MultiReschedulerOptions options;
  MultiLoadRescheduler sched(plat, options);

  // Ramp concurrency on ONE cluster 1 -> 12: each growth rebuilds the
  // slot LP; between growths arrivals are pure patches.
  std::vector<ActiveLoad> active;
  int slots_before = 0, rebuilds = 0;
  for (int i = 0; i < 12; ++i) {
    active.push_back({i, 0, 1.0});
    const MultiReschedule r = sched.reschedule(active);
    MultiLoadRescheduler fresh(plat, options);
    const MultiReschedule ref = fresh.reschedule(active);
    EXPECT_NEAR(r.objective, ref.objective, kTol * (1.0 + ref.objective));
    if (sched.slot_count() != slots_before) {
      ++rebuilds;
      slots_before = sched.slot_count();
    }
  }
  EXPECT_GE(sched.slot_count(), 12);
  // Geometric growth: far fewer rebuilds than arrivals.
  EXPECT_LE(rebuilds, 6);
}

TEST(MultiRescheduler, RejectsInvalidActiveSets) {
  const platform::Platform plat = test_platform(3, 9);
  MultiLoadRescheduler sched(plat, MultiReschedulerOptions{});
  EXPECT_THROW((void)sched.reschedule({}), Error);
  EXPECT_THROW((void)sched.reschedule({{0, 0, 1.0}, {0, 1, 1.0}}), Error);
  EXPECT_THROW((void)sched.reschedule({{0, 7, 1.0}}), Error);
  EXPECT_THROW((void)sched.reschedule({{0, 0, 0.0}}), Error);
}

/// The ISSUE 8 churn satellite: a platform-event trace replayed under a
/// 4-load shared LP. At every event (load churn or platform change) the
/// warm-patched rescheduler must reach the optimum a cold solve of the
/// same mutated platform reaches.
TEST(MultiRescheduler, WarmPatchesTrackColdUnderPlatformEventTrace) {
  const platform::Platform base = test_platform(8, 47);

  // Capacity + failure/repair trace (the generators are deterministic
  // given the rng): bandwidth drift re-prices the matrix under the
  // capsule, link down/up reshapes routes.
  Rng trace_rng(101);
  dynamics::FailureRepairParams fparams;
  fparams.horizon = 40.0;
  fparams.link_mtbf = 30.0;
  fparams.mean_repair = 10.0;
  dynamics::DriftParams dparams;
  dparams.horizon = 40.0;
  const dynamics::EventTrace trace = dynamics::EventTrace::merge(
      dynamics::failure_repair_trace(base, fparams, trace_rng),
      dynamics::drift_trace(base, dparams, trace_rng));
  ASSERT_GT(trace.size(), 0);

  dynamics::DynamicPlatform dyn(base);
  MultiReschedulerOptions warm_opt;
  MultiReschedulerOptions cold_opt;
  cold_opt.warm = WarmPolicy::Never;
  // Both reschedulers watch the SAME DynamicPlatform instance.
  MultiLoadRescheduler warm(dyn.plat(), warm_opt), cold(dyn.plat(), cold_opt);

  // Four loads, one per distinct home cluster.
  std::vector<ActiveLoad> loads = {
      {0, 0, 1.0}, {1, 2, 0.7}, {2, 4, 1.3}, {3, 6, 1.0}};

  int warm_used = 0, events_checked = 0;
  Rng churn_rng(55);
  for (const dynamics::PlatformEvent& event : trace.events) {
    const dynamics::ChangeScope scope = dyn.apply(event);
    if (scope == dynamics::ChangeScope::Capacity) {
      warm.platform_capacity_changed();
      cold.platform_capacity_changed();
    } else if (scope == dynamics::ChangeScope::Topology) {
      warm.platform_topology_changed();
      cold.platform_topology_changed();
    }
    // Interleave load churn with the platform events: replace one load
    // every few events (fresh id, new home among present clusters).
    if (churn_rng.uniform(0.0, 1.0) < 0.3) {
      std::vector<int> present;
      for (int c = 0; c < 8; ++c)
        if (dyn.cluster_present(c)) present.push_back(c);
      ASSERT_FALSE(present.empty());
      const std::size_t slot = static_cast<std::size_t>(
          churn_rng.uniform_int(0, static_cast<std::int64_t>(loads.size()) - 1));
      loads[slot].id = 100 + events_checked;
      loads[slot].cluster = present[static_cast<std::size_t>(churn_rng.uniform_int(
          0, static_cast<std::int64_t>(present.size()) - 1))];
    }
    // Drop loads whose home cluster churned out (the engine aborts
    // those apps); skip the check when none survive.
    std::vector<ActiveLoad> active;
    for (const ActiveLoad& load : loads)
      if (dyn.cluster_present(load.cluster)) active.push_back(load);
    if (active.empty()) continue;

    const MultiReschedule rw = warm.reschedule(active);
    const MultiReschedule rc = cold.reschedule(active);
    EXPECT_NEAR(rw.objective, rc.objective,
                kTol * (1.0 + std::fabs(rc.objective)))
        << "event " << events_checked << " kind "
        << static_cast<int>(event.kind);
    warm_used += rw.warm;
    ++events_checked;
  }
  EXPECT_GT(events_checked, 10);
  EXPECT_GT(warm_used, 0);
}

/// The rebuild-everything capacity path, an oracle for the in-place
/// patch: every capacity event drops the slot problem and the reduced
/// model and rebuilds both from the platform, keeping the warm capsule
/// and otherwise solving the way MultiLoadRescheduler does. With at
/// most one load per cluster the rescheduler's slot universe is one
/// slot per cluster, slot index = cluster, which this mirrors.
class RebuildingReference {
public:
  explicit RebuildingReference(const platform::Platform& plat) : plat_(&plat) {
    options_.lp.compute_duals = false;
  }

  void capacity_changed() {
    problem_.reset();
    reduced_.reset();
  }

  core::MultiLoadSolution solve(const std::vector<ActiveLoad>& loads) {
    std::vector<double> weights(plat_->num_clusters(), 0.0);
    for (const ActiveLoad& load : loads) weights[load.cluster] = load.weight;
    if (!problem_) {
      core::LoadSet slots;
      for (int c = 0; c < plat_->num_clusters(); ++c) {
        core::LoadSpec spec;
        spec.source = c;
        spec.weight = weights[c];
        slots.loads.push_back(spec);
      }
      problem_.emplace(*plat_, std::move(slots), core::Objective::Sum);
    } else {
      problem_->set_load_weights(weights);
    }
    if (!reduced_) {
      reduced_ = problem_->build_reduced();
    } else {
      problem_->update_reduced_payoffs(*reduced_);
    }
    core::LpWarmStart warm;
    warm.state = &state_;
    warm.arena = &arena_;
    warm.reduced = &*reduced_;
    return core::solve_loads(*problem_, options_, &warm);
  }

private:
  const platform::Platform* plat_;
  core::MultiLoadSolveOptions options_;
  std::optional<core::SteadyStateProblem> problem_;
  std::optional<core::SteadyStateProblem::ReducedModel> reduced_;
  lp::WarmState state_;
  lp::SolveArena arena_;
};

/// Capacity events patch the cached slot problem and reduced model in
/// place. Under link and gateway drift plus max-connect changes the
/// rescheduler must return the rebuild oracle's rates and objective bit
/// for bit, with the same warm, cold and repaired starts.
TEST(MultiRescheduler, CapacityPatchesMatchFullRebuildsBitForBit) {
  const platform::Platform base = test_platform(10, 61);
  Rng trace_rng(17);
  dynamics::DriftParams dparams;
  dparams.horizon = 300.0;
  dparams.sample_fraction = 0.3;
  dparams.gateways = true;
  dynamics::EventTrace trace = dynamics::drift_trace(base, dparams, trace_rng);
  // Max-connect moves on the routed links, interleaved with the drift.
  for (int i = 0; i < 12; ++i) {
    platform::LinkId li = static_cast<platform::LinkId>(i % base.num_links());
    while (base.num_routes_through(li) == 0) li = (li + 1) % base.num_links();
    trace.events.push_back({25.0 * i + 3.0, dynamics::EventKind::LinkMaxConnect,
                            li, static_cast<double>(1 + (i * 7) % 11)});
  }
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const dynamics::PlatformEvent& a,
                      const dynamics::PlatformEvent& b) { return a.time < b.time; });

  dynamics::DynamicPlatform dyn(base);
  MultiLoadRescheduler sched(dyn.plat(), MultiReschedulerOptions{});
  RebuildingReference ref(dyn.plat());

  // One load per cluster at most; arrivals and departures flip clusters
  // between events so weight patches and re-pricing interleave.
  Rng churn_rng(8);
  std::vector<ActiveLoad> loads = {{0, 1, 1.0}, {1, 4, 0.6}, {2, 7, 1.4}};
  int next_id = 3, capacity_events = 0;
  int ref_warm = 0, ref_cold = 0, ref_repaired = 0;
  for (const dynamics::PlatformEvent& event : trace.events) {
    const dynamics::ChangeScope scope = dyn.apply(event);
    ASSERT_NE(scope, dynamics::ChangeScope::Topology);
    if (scope == dynamics::ChangeScope::Capacity) {
      sched.platform_capacity_changed();
      ref.capacity_changed();
      ++capacity_events;
    }
    if (churn_rng.uniform01() < 0.4) {
      std::vector<char> busy(static_cast<std::size_t>(base.num_clusters()), 0);
      for (const ActiveLoad& load : loads) busy[load.cluster] = 1;
      const int c = static_cast<int>(churn_rng.uniform_int(0, base.num_clusters() - 1));
      if (busy[c] == 0) {
        loads.push_back({next_id++, c, churn_rng.uniform(0.5, 1.5)});
      } else if (loads.size() > 1) {
        std::erase_if(loads, [c](const ActiveLoad& load) { return load.cluster == c; });
      }
    }
    const MultiReschedule got = sched.reschedule(loads);
    const core::MultiLoadSolution want = ref.solve(loads);
    ASSERT_EQ(want.status, lp::SolveStatus::Optimal);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective),
              std::bit_cast<std::uint64_t>(want.objective));
    ASSERT_EQ(got.rate.size(), loads.size());
    for (std::size_t i = 0; i < loads.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.rate[i]),
                std::bit_cast<std::uint64_t>(want.throughput[loads[i].cluster]))
          << "load " << loads[i].id;
    EXPECT_EQ(got.warm, want.warm);
    EXPECT_EQ(got.repaired, want.repaired);
    EXPECT_EQ(got.lp_iterations, want.lp_iterations);
    ref_warm += want.warm;
    ref_cold += !want.warm;
    ref_repaired += want.repaired;
  }
  EXPECT_GT(capacity_events, 20);
  EXPECT_EQ(sched.stats().warm_solves, ref_warm);
  EXPECT_EQ(sched.stats().cold_solves, ref_cold);
  EXPECT_EQ(sched.stats().repaired_solves, ref_repaired);
  EXPECT_GT(ref_repaired, 0);  // link drift re-priced the matrix under the capsule
  EXPECT_EQ(sched.slot_count(), base.num_clusters());
}

}  // namespace
}  // namespace dls::online
