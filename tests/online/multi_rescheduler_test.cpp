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
      // Every growth after the first solve carries the basis over.
      if (i > 0) {
        EXPECT_TRUE(r.warm && r.repaired) << "growth at arrival " << i;
      }
    }
  }
  EXPECT_GE(sched.slot_count(), 12);
  // Geometric growth: far fewer rebuilds than arrivals.
  EXPECT_LE(rebuilds, 6);
}

/// One slot of the slot universe MultiLoadRescheduler lays out: its
/// cluster and the id of the load seated on it (-1 idle).
struct SlotOwner {
  int cluster = -1;
  int id = -1;
};

/// The slot problem over `slots` (cluster-major, as the rescheduler lays
/// it out), each slot weighted by its load's weight (0 when idle).
core::SteadyStateProblem slot_problem(const platform::Platform& plat,
                                      const std::vector<SlotOwner>& slots,
                                      const std::vector<ActiveLoad>& loads) {
  core::LoadSet set;
  for (const SlotOwner& slot : slots) {
    core::LoadSpec spec;
    spec.source = slot.cluster;
    spec.weight = 0.0;
    for (const ActiveLoad& load : loads)
      if (load.id == slot.id) spec.weight = load.weight;
    set.loads.push_back(spec);
  }
  return core::SteadyStateProblem(plat, std::move(set), core::Objective::Sum);
}

/// Whether any alpha of `slot` is basic in `basis`.
bool slot_basic(const core::SteadyStateProblem& problem, const lp::Basis& basis,
                int slot) {
  for (int l = 0; l < problem.num_clusters(); ++l) {
    const int r = problem.load_route_id(slot, l);
    if (r >= 0 && basis.variables[r] == lp::BasisStatus::Basic) return true;
  }
  return false;
}

/// A growth event on test_platform(6, 23): clusters 0 and 1 each need
/// four slots and double from 2 to 4. Seats go in call order, so the
/// arrivals take the first slots and the survivors B, G and H move; A
/// departs in the same event.
constexpr int A = 0, B = 1, G = 2, H = 3, F = 5, C = 10, D = 11, E = 12, I = 13,
              J = 14;
const std::vector<ActiveLoad> kBeforeGrowth = {
    {A, 0, 1.6}, {B, 0, 0.8}, {G, 1, 0.7}, {H, 1, 1.5}, {F, 2, 1.0}};
const std::vector<ActiveLoad> kAfterGrowth = {
    {C, 0, 1.2}, {D, 0, 0.9}, {B, 0, 0.8}, {E, 0, 1.4}, {I, 1, 0.6},
    {J, 1, 0.5}, {H, 1, 1.5}, {G, 1, 0.7}, {F, 2, 1.0}};

/// Slot growth hands the optimal basis to the grown slot LP. The oracle
/// rebuilds the pre-growth LP from scratch, solves it cold (as the
/// rescheduler's first solve is), moves each status to the grown LP's
/// column of the same (load, destination), and solves the freshly built
/// grown model from that statuses-only basis. The rescheduler must return
/// its rates, objective and pivot count bit for bit. The growth event
/// also retires load A, whose alpha is basic at the pre-growth optimum,
/// and moves the basic survivor H to another offset within its cluster.
TEST(MultiRescheduler, SlotGrowthCarriesTheBasisOverBitForBit) {
  const platform::Platform plat = test_platform(6, 23);
  core::MultiLoadSolveOptions options;
  options.lp.compute_duals = false;  // as the rescheduler solves
  const std::vector<ActiveLoad>& before = kBeforeGrowth;
  const std::vector<ActiveLoad>& after = kAfterGrowth;
  const std::vector<SlotOwner> old_slots = {{0, A}, {0, B},  {1, G},  {1, H},
                                            {2, F}, {3, -1}, {4, -1}, {5, -1}};
  const std::vector<SlotOwner> new_slots = {
      {0, C}, {0, D}, {0, B}, {0, E},  {1, I},  {1, J},
      {1, H}, {1, G}, {2, F}, {3, -1}, {4, -1}, {5, -1}};

  // Pre-growth optimum, solved cold.
  const core::SteadyStateProblem old_problem = slot_problem(plat, old_slots, before);
  const core::SteadyStateProblem::ReducedModel old_reduced = old_problem.build_reduced();
  lp::WarmState old_state;
  core::LpWarmStart old_warm;
  old_warm.state = &old_state;
  old_warm.reduced = &old_reduced;
  const core::MultiLoadSolution old_sol =
      core::solve_loads(old_problem, options, &old_warm);
  ASSERT_EQ(old_sol.status, lp::SolveStatus::Optimal);
  ASSERT_TRUE(old_state.valid);
  const lp::Basis& old_basis = old_state.basis;
  ASSERT_TRUE(slot_basic(old_problem, old_basis, 0)) << "departing A";
  ASSERT_TRUE(slot_basic(old_problem, old_basis, 3)) << "moving survivor H";

  // Who inherits each old slot's statuses: a surviving load keeps its
  // own; the departed A's go to C, on the lowest cluster-0 slot no
  // survivor holds; an idle cluster's one slot stays its idle slot.
  const auto heir = [](const SlotOwner& slot) {
    return slot.id == A ? SlotOwner{slot.cluster, C} : slot;
  };
  const core::SteadyStateProblem grown = slot_problem(plat, new_slots, after);
  lp::Basis expected;
  expected.slacks = old_basis.slacks;
  expected.variables.assign(grown.load_routes().size(), lp::BasisStatus::AtLower);
  for (std::size_t o = 0; o < old_slots.size(); ++o) {
    const SlotOwner want = heir(old_slots[o]);
    const auto it = std::find_if(new_slots.begin(), new_slots.end(),
                                 [&](const SlotOwner& s) {
                                   return s.cluster == want.cluster && s.id == want.id;
                                 });
    ASSERT_NE(it, new_slots.end());
    const int n = static_cast<int>(it - new_slots.begin());
    for (int l = 0; l < plat.num_clusters(); ++l) {
      const int from = old_problem.load_route_id(static_cast<int>(o), l);
      const int to = grown.load_route_id(n, l);
      ASSERT_EQ(from < 0, to < 0);
      if (from >= 0) expected.variables[to] = old_basis.variables[from];
    }
  }

  // The grown model, built fresh, solved from the expected statuses alone.
  const core::SteadyStateProblem::ReducedModel grown_reduced = grown.build_reduced();
  lp::WarmState carried;
  carried.basis = expected;
  carried.fingerprint = old_state.fingerprint;
  carried.valid = true;
  core::LpWarmStart warm;
  warm.state = &carried;
  warm.reduced = &grown_reduced;
  const core::MultiLoadSolution want = core::solve_loads(grown, options, &warm);
  ASSERT_EQ(want.status, lp::SolveStatus::Optimal);
  ASSERT_TRUE(want.repaired);

  MultiLoadRescheduler sched(plat, MultiReschedulerOptions{});
  const MultiReschedule first = sched.reschedule(before);
  EXPECT_FALSE(first.warm);
  ASSERT_EQ(sched.slot_count(), static_cast<int>(old_slots.size()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(first.objective),
            std::bit_cast<std::uint64_t>(old_sol.objective));
  EXPECT_EQ(first.lp_iterations, old_sol.lp_iterations);

  const MultiReschedule got = sched.reschedule(after);
  ASSERT_EQ(sched.slot_count(), static_cast<int>(new_slots.size()));
  EXPECT_TRUE(got.warm);
  EXPECT_TRUE(got.repaired);
  EXPECT_EQ(got.lp_iterations, want.lp_iterations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective),
            std::bit_cast<std::uint64_t>(want.objective));
  ASSERT_EQ(got.rate.size(), after.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    const auto seat = std::find_if(new_slots.begin(), new_slots.end(),
                                   [&](const SlotOwner& s) { return s.id == after[i].id; });
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.rate[i]),
              std::bit_cast<std::uint64_t>(want.throughput[seat - new_slots.begin()]))
        << "load " << after[i].id;
  }
  EXPECT_EQ(sched.stats().cold_solves, 1);
  EXPECT_EQ(sched.stats().repaired_solves, 1);

  // Under WarmPolicy::Never the growth stays cold and reaches the same
  // optimum; so does a cold solve of the grown model.
  MultiReschedulerOptions never;
  never.warm = WarmPolicy::Never;
  MultiLoadRescheduler cold(plat, never);
  (void)cold.reschedule(before);
  const MultiReschedule cold_got = cold.reschedule(after);
  EXPECT_FALSE(cold_got.warm);
  EXPECT_FALSE(cold_got.repaired);
  EXPECT_EQ(cold.stats().cold_solves, 2);
  EXPECT_LT(got.lp_iterations, cold_got.lp_iterations);
  const core::MultiLoadSolution cold_want = core::solve_loads(grown, options);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cold_got.objective),
            std::bit_cast<std::uint64_t>(cold_want.objective));
  EXPECT_EQ(cold_got.lp_iterations, cold_want.lp_iterations);
  EXPECT_NEAR(got.objective, cold_got.objective,
              1e-9 * (1.0 + std::fabs(cold_got.objective)));
}

/// PropFair's slot LP has the WeightedSum layout, so its growth carries
/// the basis over too and still reaches the cold optimum.
TEST(MultiRescheduler, PropFairSlotGrowthStaysWarm) {
  const platform::Platform plat = test_platform(6, 23);
  MultiReschedulerOptions options;
  options.solve.objective = core::MultiObjective::PropFair;
  MultiReschedulerOptions never = options;
  never.warm = WarmPolicy::Never;
  MultiLoadRescheduler warm(plat, options), cold(plat, never);
  for (const auto* loads : {&kBeforeGrowth, &kAfterGrowth}) {
    const MultiReschedule rw = warm.reschedule(*loads);
    const MultiReschedule rc = cold.reschedule(*loads);
    EXPECT_EQ(rw.warm, loads == &kAfterGrowth);
    EXPECT_NEAR(rw.objective, rc.objective, 1e-4 * (1.0 + std::fabs(rc.objective)));
  }
  EXPECT_EQ(warm.slot_count(), 12);
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
