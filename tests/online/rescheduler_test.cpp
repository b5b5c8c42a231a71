// The rescheduler in single-load mode (the paper's one application per
// cluster): warm-started re-solves must match cold solves' objectives,
// the invalidation rules must hold, and the warm path must actually
// engage.
#include "online/rescheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "platform/generator.hpp"

namespace dls::online {
namespace {

constexpr double kTol = 1e-6;

platform::Platform test_platform(int k, std::uint64_t seed) {
  platform::GeneratorParams params;
  params.num_clusters = k;
  params.ensure_connected = true;
  Rng rng(seed);
  return generate_platform(params, rng);
}

/// The active set of a payoff vector: one load per cluster with a
/// positive payoff, id = cluster.
std::vector<ActiveLoad> loads_of(const std::vector<double>& payoffs) {
  std::vector<ActiveLoad> loads;
  for (std::size_t c = 0; c < payoffs.size(); ++c)
    if (payoffs[c] > 0.0)
      loads.push_back({static_cast<int>(c), static_cast<int>(c), payoffs[c]});
  return loads;
}

/// Arrival/departure-like payoff sequence: one cluster flips per step.
std::vector<std::vector<double>> event_sequence(int k, int steps,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> payoffs(static_cast<std::size_t>(k), 0.0);
  payoffs[0] = 1.0;
  std::vector<std::vector<double>> seq{payoffs};
  for (int s = 1; s < steps; ++s) {
    const std::size_t c = rng.index(static_cast<std::size_t>(k));
    payoffs[c] = payoffs[c] > 0.0 ? 0.0 : rng.uniform(0.5, 1.5);
    // Keep at least one application active.
    bool any = false;
    for (double p : payoffs) any |= p > 0.0;
    if (!any) payoffs[c] = 1.0;
    seq.push_back(payoffs);
  }
  return seq;
}

/// The acceptance cross-check: for every event in the sequence, the
/// warm-started reschedule reaches the same objective as a cold solve
/// of the identical instance. Exact (rel_tol ~ 0) for the LP bound —
/// warm and cold run the same solver to optimality on the same model.
/// The rounding heuristics inherit the LP *value* but not the vertex:
/// degenerate optima can round to slightly different valid allocations,
/// so LPR gets a small relative band instead of equality.
void check_warm_equals_cold(Method method, core::Objective objective,
                            double rel_tol) {
  const platform::Platform plat = test_platform(10, 21);
  ReschedulerOptions warm_opt;
  warm_opt.method = method;
  warm_opt.objective = objective;
  warm_opt.warm = WarmPolicy::Auto;
  ReschedulerOptions cold_opt = warm_opt;
  cold_opt.warm = WarmPolicy::Never;
  MultiLoadRescheduler warm(plat, warm_opt), cold(plat, cold_opt);
  int warm_used = 0;
  for (const auto& payoffs : event_sequence(10, 60, 5)) {
    const MultiReschedule rw = warm.reschedule(loads_of(payoffs));
    const MultiReschedule rc = cold.reschedule(loads_of(payoffs));
    EXPECT_NEAR(rw.objective, rc.objective,
                kTol + rel_tol * (1.0 + rc.objective));
    warm_used += rw.warm;
    EXPECT_FALSE(rc.warm);
  }
  EXPECT_GT(warm_used, 0);
}

TEST(Rescheduler, WarmMatchesColdObjectiveLpBoundSum) {
  check_warm_equals_cold(Method::LpBound, core::Objective::Sum, kTol);
}

TEST(Rescheduler, WarmMatchesColdObjectiveLpBoundMaxMin) {
  check_warm_equals_cold(Method::LpBound, core::Objective::MaxMin, kTol);
}

TEST(Rescheduler, LprWarmStaysValidWhileLpValueMatchesCold) {
  // LPR rounds the LP vertex down, and degenerate optima have several
  // vertices, so warm and cold LPR allocations (and their objectives)
  // may legitimately differ by the rounding loss. What must hold on
  // every event: both allocations are valid, and both are bounded by
  // the LP relaxation value, which IS vertex-independent (the LpBound
  // equality tests above pin that down).
  const platform::Platform plat = test_platform(10, 21);
  ReschedulerOptions warm_opt;
  warm_opt.method = Method::Lpr;
  warm_opt.objective = core::Objective::Sum;
  ReschedulerOptions cold_opt = warm_opt;
  cold_opt.warm = WarmPolicy::Never;
  MultiLoadRescheduler warm(plat, warm_opt), cold(plat, cold_opt);
  const core::SteadyStateProblem base(plat, std::vector<double>(10, 1.0),
                                      core::Objective::Sum);
  int warm_used = 0;
  for (const auto& payoffs : event_sequence(10, 40, 5)) {
    const MultiReschedule rw = warm.reschedule(loads_of(payoffs));
    const MultiReschedule rc = cold.reschedule(loads_of(payoffs));
    const auto problem = base.with_loads(core::LoadSet::from_payoffs(payoffs));
    EXPECT_TRUE(core::validate_allocation(problem, warm.allocation()).ok);
    EXPECT_TRUE(core::validate_allocation(problem, cold.allocation()).ok);
    const double bound =
        core::lp_upper_bound(problem, core::solve_relaxation(problem)).objective;
    EXPECT_LE(rw.objective, bound + kTol * (1.0 + bound));
    EXPECT_LE(rc.objective, bound + kTol * (1.0 + bound));
    warm_used += rw.warm;
  }
  EXPECT_GT(warm_used, 0);
}

TEST(Rescheduler, WarmEngagesAndSavesPivotsUnderSum) {
  const platform::Platform plat = test_platform(12, 23);
  ReschedulerOptions warm_opt;
  warm_opt.method = Method::LpBound;
  warm_opt.objective = core::Objective::Sum;
  ReschedulerOptions cold_opt = warm_opt;
  cold_opt.warm = WarmPolicy::Never;
  MultiLoadRescheduler warm(plat, warm_opt), cold(plat, cold_opt);
  for (const auto& payoffs : event_sequence(12, 80, 7)) {
    (void)warm.reschedule(loads_of(payoffs));
    (void)cold.reschedule(loads_of(payoffs));
  }
  const auto& ws = warm.stats();
  const auto& cs = cold.stats();
  // Under Sum the model never reshapes, so after the first (cold) solve
  // every event warm-starts.
  EXPECT_EQ(ws.cold_solves, 1);
  EXPECT_EQ(ws.warm_solves, 79);
  EXPECT_EQ(cs.warm_solves, 0);
  // The whole point: the warm path re-optimizes in far fewer pivots.
  EXPECT_LT(ws.warm_iterations * 2, cs.cold_iterations);
}

TEST(Rescheduler, MaxMinReshapesSoWarmOnlySurvivesSameActiveCount) {
  const platform::Platform plat = test_platform(8, 29);
  ReschedulerOptions opt;
  opt.method = Method::LpBound;
  opt.objective = core::Objective::MaxMin;
  MultiLoadRescheduler sched(plat, opt);
  std::vector<double> payoffs(8, 0.0);
  payoffs[0] = payoffs[1] = 1.0;
  (void)sched.reschedule(loads_of(payoffs));
  // Arrival: active count 2 -> 3 reshapes the MaxMin model (one more
  // fairness row); neither the capsule nor a basis repair fits the new
  // shape, so this solves cold.
  payoffs[2] = 1.0;
  EXPECT_FALSE(sched.reschedule(loads_of(payoffs)).warm);
  // Payoff value change at the same support: same shape but the MaxMin
  // fairness rows embed the payoff *values*, so the matrix fingerprint
  // no longer matches. The simplex's basis-repair path (see
  // lp::WarmKind::Basis) refactorizes the carried statuses against the
  // re-priced matrix instead of starting cold.
  payoffs[2] = 1.2;
  {
    const MultiReschedule r = sched.reschedule(loads_of(payoffs));
    EXPECT_TRUE(r.warm);
    EXPECT_TRUE(r.repaired);
  }
  // Identical payoffs again: identical matrix, capsule restored whole.
  {
    const MultiReschedule r = sched.reschedule(loads_of(payoffs));
    EXPECT_TRUE(r.warm);
    EXPECT_FALSE(r.repaired);
  }
}

TEST(Rescheduler, GreedyAutoStaysColdAlwaysSeeds) {
  const platform::Platform plat = test_platform(9, 37);
  ReschedulerOptions opt;
  opt.method = Method::Greedy;
  opt.objective = core::Objective::MaxMin;
  MultiLoadRescheduler auto_sched(plat, opt);
  opt.warm = WarmPolicy::Always;
  MultiLoadRescheduler seeded_sched(plat, opt);
  const core::SteadyStateProblem base(plat, std::vector<double>(9, 1.0),
                                      core::Objective::MaxMin);
  for (const auto& payoffs : event_sequence(9, 30, 11)) {
    const MultiReschedule a = auto_sched.reschedule(loads_of(payoffs));
    (void)seeded_sched.reschedule(loads_of(payoffs));
    EXPECT_FALSE(a.warm);  // greedy has no LP phase to skip under Auto
    // Both must produce valid allocations for the instance.
    const auto problem = base.with_loads(core::LoadSet::from_payoffs(payoffs));
    EXPECT_TRUE(core::validate_allocation(problem, auto_sched.allocation()).ok);
    EXPECT_TRUE(core::validate_allocation(problem, seeded_sched.allocation()).ok);
  }
  EXPECT_GT(seeded_sched.stats().warm_solves, 0);
}

TEST(Rescheduler, RejectsAllZeroPayoffs) {
  const platform::Platform plat = test_platform(4, 41);
  MultiLoadRescheduler sched(plat, ReschedulerOptions{});
  EXPECT_THROW((void)sched.reschedule(loads_of(std::vector<double>(4, 0.0))), Error);
}

TEST(Rescheduler, SingleLoadModeHoldsOneLoadPerClusterOnTheCanonicalLp) {
  const platform::Platform plat = test_platform(6, 41);
  ReschedulerOptions opt;
  opt.method = Method::LpBound;
  opt.objective = core::Objective::Sum;
  MultiLoadRescheduler sched(plat, opt);
  EXPECT_THROW((void)sched.reschedule({{0, 2, 1.0}, {1, 2, 1.0}}), Error);
  const std::vector<ActiveLoad> loads = {{7, 4, 1.5}, {3, 1, 0.5}};
  const MultiReschedule r = sched.reschedule(loads);
  // The slot universe is one slot per cluster: the canonical problem,
  // idle clusters as zero-weight columns.
  EXPECT_EQ(sched.slot_count(), 6);
  EXPECT_TRUE(sched.problem().is_canonical());
  std::vector<double> payoffs(6, 0.0);
  payoffs[4] = 1.5;
  payoffs[1] = 0.5;
  EXPECT_EQ(sched.problem().payoffs(), payoffs);
  // Rates are the home clusters' allocated throughputs, in call order.
  ASSERT_EQ(r.rate.size(), 2u);
  EXPECT_EQ(r.rate[0], sched.allocation().total_alpha(4));
  EXPECT_EQ(r.rate[1], sched.allocation().total_alpha(1));
  const core::SteadyStateProblem fresh(plat, payoffs, core::Objective::Sum);
  EXPECT_EQ(r.objective,
            core::lp_upper_bound(fresh, core::solve_relaxation(fresh)).objective);
}

TEST(Rescheduler, ResetDropsWarmState) {
  const platform::Platform plat = test_platform(8, 43);
  ReschedulerOptions opt;
  opt.method = Method::LpBound;
  opt.objective = core::Objective::Sum;
  MultiLoadRescheduler sched(plat, opt);
  std::vector<double> payoffs(8, 1.0);
  (void)sched.reschedule(loads_of(payoffs));
  EXPECT_TRUE(sched.reschedule(loads_of(payoffs)).warm);
  sched.reset();
  EXPECT_FALSE(sched.reschedule(loads_of(payoffs)).warm);
}

TEST(Rescheduler, PlatformCapacityChangeWarmRepairsToColdOptimum) {
  platform::Platform plat = test_platform(8, 43);
  ReschedulerOptions opt;
  opt.method = Method::LpBound;
  opt.objective = core::Objective::Sum;
  MultiLoadRescheduler sched(plat, opt);
  const std::vector<double> payoffs(8, 1.0);
  (void)sched.reschedule(loads_of(payoffs));

  // A bandwidth cut re-prices matrix coefficients: the capsule cannot
  // restore whole, but the repair path keeps the solve warm and its
  // objective must match a from-scratch solve on the mutated platform.
  plat.set_link_bandwidth(0, plat.link(0).bw * 0.5);
  sched.platform_capacity_changed();
  const MultiReschedule repaired = sched.reschedule(loads_of(payoffs));
  EXPECT_TRUE(repaired.warm);
  EXPECT_TRUE(repaired.repaired);

  MultiLoadRescheduler fresh(plat, opt);
  EXPECT_NEAR(repaired.objective, fresh.reschedule(loads_of(payoffs)).objective, kTol);
  EXPECT_EQ(sched.stats().repaired_solves, 1);

  // A pure rhs move (max-connect) keeps the fingerprint: the capsule
  // restores whole, no repair involved.
  plat.set_link_max_connections(0, plat.link(0).max_connections / 2 + 1);
  sched.platform_capacity_changed();
  const MultiReschedule whole = sched.reschedule(loads_of(payoffs));
  EXPECT_TRUE(whole.warm);
  EXPECT_FALSE(whole.repaired);
  MultiLoadRescheduler fresh2(plat, opt);
  EXPECT_NEAR(whole.objective, fresh2.reschedule(loads_of(payoffs)).objective, kTol);
}

TEST(Rescheduler, PlatformTopologyChangeForcesColdSolve) {
  platform::Platform plat = test_platform(8, 47);
  ReschedulerOptions opt;
  opt.method = Method::LpBound;
  opt.objective = core::Objective::Sum;
  MultiLoadRescheduler sched(plat, opt);
  const std::vector<double> payoffs(8, 1.0);
  (void)sched.reschedule(loads_of(payoffs));

  (void)plat.set_link_up(0, false);  // route set changes, model reshapes
  sched.platform_topology_changed();
  const MultiReschedule r = sched.reschedule(loads_of(payoffs));
  EXPECT_FALSE(r.warm);
  EXPECT_FALSE(r.repaired);
  MultiLoadRescheduler fresh(plat, opt);
  EXPECT_NEAR(r.objective, fresh.reschedule(loads_of(payoffs)).objective, kTol);
  // The cold solve refreshed the capsule: the next event is warm again.
  EXPECT_TRUE(sched.reschedule(loads_of(payoffs)).warm);
}

}  // namespace
}  // namespace dls::online
