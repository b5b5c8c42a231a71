#include "exp/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "obs/metrics.hpp"

namespace dls::exp {
namespace {

CaseConfig small_config(std::uint64_t seed) {
  CaseConfig config;
  config.params.num_clusters = 6;
  config.params.connectivity = 0.5;
  config.params.heterogeneity = 0.4;
  config.params.mean_gateway_bw = 100;
  config.params.mean_backbone_bw = 20;
  config.params.mean_max_connections = 4;
  config.seed = seed;
  return config;
}

TEST(RunCase, ProducesOrderedObjectives) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    CaseConfig config = small_config(seed);
    config.with_lprr = true;
    for (core::Objective obj : {core::Objective::Sum, core::Objective::MaxMin}) {
      config.objective = obj;
      const CaseResult r = run_case(config);
      ASSERT_TRUE(r.ok);
      EXPECT_GT(r.lp, 0.0);
      // Every heuristic below the bound; LPRG above LPR by construction.
      for (double v : {r.g, r.lpr, r.lprg, r.lprr}) {
        EXPECT_GE(v, -1e-9);
        EXPECT_LE(v, r.lp * (1 + 1e-5));
      }
      EXPECT_GE(r.lprg, r.lpr - 1e-9);
      // Timings populated.
      EXPECT_GE(r.t_lp.seconds, 0.0);
      EXPECT_GT(r.t_lprr.lp_solves, 0);
    }
  }
}

TEST(RunCase, DeterministicForSameSeed) {
  CaseConfig config = small_config(77);
  config.with_lprr = true;
  const CaseResult a = run_case(config);
  const CaseResult b = run_case(config);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.lp, b.lp);
  EXPECT_EQ(a.g, b.g);
  EXPECT_EQ(a.lprg, b.lprg);
  EXPECT_EQ(a.lprr, b.lprr);
}

TEST(RunCase, SkipsLprrUnlessRequested) {
  const CaseResult r = run_case(small_config(5));
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(std::isnan(r.lprr));
  EXPECT_TRUE(std::isnan(r.lprr_eq));
  EXPECT_TRUE(std::isnan(r.lprr_1shot));
}

TEST(RunCase, OneShotVariantsRun) {
  CaseConfig config = small_config(11);
  config.with_lprr_oneshot = true;
  const CaseResult r = run_case(config);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(std::isnan(r.lprr_1shot));
  EXPECT_FALSE(std::isnan(r.lprr_1shot_eq));
  EXPECT_LE(r.lprr_1shot, r.lp * (1 + 1e-5));
}

TEST(RunCase, ZeroPayoffSpreadPinsRatiosToOne) {
  // The DESIGN.md claim: uniform payoffs make both objectives trivial —
  // local-only computation is optimal and the greedy finds it exactly.
  // LPRG stays close but keeps a small rounding loss: the relaxation's
  // vertex may cross-ship, and the greedy refinement cannot revoke those
  // transfers.
  CaseConfig config = small_config(13);
  config.payoff_spread = 0.0;
  for (core::Objective obj : {core::Objective::Sum, core::Objective::MaxMin}) {
    config.objective = obj;
    const CaseResult r = run_case(config);
    ASSERT_TRUE(r.ok);
    EXPECT_NEAR(r.g / r.lp, 1.0, 1e-6);
    EXPECT_GE(r.lprg / r.lp, 0.95);
  }
}

TEST(RunCase, RejectsBadSpread) {
  CaseConfig config = small_config(1);
  config.payoff_spread = 1.0;
  EXPECT_THROW((void)run_case(config), Error);
}

/// Every simplex solve so far, summed over dls_lp_solves_total's start
/// kinds.
std::uint64_t lp_solves_total() {
  std::uint64_t total = 0;
  for (const obs::SeriesSnapshot& s : obs::registry().snapshot().series)
    if (s.name == "dls_lp_solves_total") total += s.counter;
  return total;
}

TEST(Experiment, OneRelaxationPerCase) {
  for (std::uint64_t seed : {3ULL, 8ULL}) {
    for (core::LocalExhaustPolicy exhaust :
         {core::LocalExhaustPolicy::TakeRemaining,
          core::LocalExhaustPolicy::DropApplication}) {
      for (core::Objective obj : {core::Objective::MaxMin, core::Objective::Sum}) {
        CaseConfig config = small_config(seed);
        config.objective = obj;
        config.greedy.local_exhaust = exhaust;

        // The standalone methods on run_case's platform and payoffs.
        Rng rng(config.seed);
        const platform::Platform plat = generate_platform(config.params, rng);
        std::vector<double> payoffs(plat.num_clusters());
        for (double& p : payoffs)
          p = rng.uniform(1.0 - config.payoff_spread, 1.0 + config.payoff_spread);
        const core::SteadyStateProblem problem(plat, payoffs, obj);
        const double lp =
            core::lp_upper_bound(problem, core::solve_relaxation(problem)).objective;
        const double lpr = core::run_lpr(problem, core::solve_relaxation(problem)).objective;
        const double lprg =
            core::run_lprg(problem, core::solve_relaxation(problem), config.greedy)
                .objective;

        const std::uint64_t before = lp_solves_total();
        const CaseResult r = run_case(config);
        EXPECT_EQ(lp_solves_total() - before, 1u);
        ASSERT_TRUE(r.ok);
        EXPECT_EQ(r.lp, lp);
        EXPECT_EQ(r.lpr, lpr);
        EXPECT_EQ(r.lprg, lprg);
        for (const Timing& t : {r.t_lp, r.t_lpr, r.t_lprg}) EXPECT_EQ(t.lp_solves, 1);
      }
    }
  }
}

/// Every value field of a CaseResult as raw bits (NaN-safe bitwise
/// comparison); timings are wall clock and excluded.
std::vector<std::uint64_t> value_bits(const CaseResult& r) {
  std::vector<std::uint64_t> out;
  for (const double v : {r.lp, r.g, r.lpr, r.lprg, r.lprr, r.lprr_eq,
                         r.lprr_1shot, r.lprr_1shot_eq}) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    out.push_back(b);
  }
  out.push_back(r.ok ? 1u : 0u);
  return out;
}

TEST(Experiment, SiblingCasesEqualStandaloneCasesBitwise) {
  // The exhaust siblings as one unit: one relaxation, LP, LPR and LPRR
  // shared, G and LPRG per sibling. Each entry must equal the case run
  // alone, in every value, for each exhaust value and in either order,
  // whether the case runs on the unit's BatchSolver or on a fresh one.
  // Seed 36 under MaxMin has take and drop disagree on both G and LPRG,
  // so a unit that shared either would fail here.
  using core::LocalExhaustPolicy;
  lp::BatchSolver lps;
  int lprg_differs = 0;
  for (std::uint64_t seed : {3ULL, 8ULL, 36ULL}) {
    for (core::Objective obj : {core::Objective::MaxMin, core::Objective::Sum}) {
      CaseConfig config = small_config(seed);
      config.objective = obj;
      config.with_lprr = true;
      Rng rng(seed);
      const platform::Platform plat = generate_platform(config.params, rng);
      for (const auto& order :
           {std::vector<LocalExhaustPolicy>{LocalExhaustPolicy::TakeRemaining,
                                            LocalExhaustPolicy::DropApplication},
            std::vector<LocalExhaustPolicy>{LocalExhaustPolicy::DropApplication,
                                            LocalExhaustPolicy::TakeRemaining}}) {
        std::vector<core::GreedyOptions> greedy;
        for (const LocalExhaustPolicy e : order) greedy.push_back({e});
        const std::vector<CaseResult> unit =
            run_sibling_cases(config, plat, greedy, lps);
        ASSERT_EQ(unit.size(), greedy.size());
        if (unit[0].lprg != unit[1].lprg) ++lprg_differs;
        for (std::size_t i = 0; i < greedy.size(); ++i) {
          CaseConfig alone = config;
          alone.greedy = greedy[i];
          const CaseResult batched = run_case(alone, plat, lps);
          lp::BatchSolver fresh_lps;
          const CaseResult fresh = run_case(alone, plat, fresh_lps);
          ASSERT_TRUE(batched.ok);
          EXPECT_EQ(value_bits(unit[i]), value_bits(batched))
              << "seed " << seed << " entry " << i;
          EXPECT_EQ(value_bits(unit[i]), value_bits(fresh))
              << "seed " << seed << " entry " << i;
          // Each sibling's timings keep their standalone meaning.
          for (const Timing& t : {unit[i].t_lp, unit[i].t_lpr, unit[i].t_lprg})
            EXPECT_EQ(t.lp_solves, 1);
          EXPECT_EQ(unit[i].t_lprr.lp_solves, batched.t_lprr.lp_solves);
        }
      }
    }
  }
  EXPECT_GT(lprg_differs, 0);
}

TEST(Experiment, SiblingCasesShareOneRelaxation) {
  // Without LPRR the whole unit costs one simplex solve, however many
  // greedy variants it carries.
  lp::BatchSolver lps;
  const CaseConfig config = small_config(5);
  Rng rng(config.seed);
  const platform::Platform plat = generate_platform(config.params, rng);
  const std::vector<core::GreedyOptions> greedy{
      {core::LocalExhaustPolicy::TakeRemaining},
      {core::LocalExhaustPolicy::DropApplication}};
  const std::uint64_t before = lp_solves_total();
  const std::vector<CaseResult> unit = run_sibling_cases(config, plat, greedy, lps);
  EXPECT_EQ(lp_solves_total() - before, 1u);
  ASSERT_EQ(unit.size(), 2u);
  EXPECT_TRUE(unit[0].ok && unit[1].ok);
  EXPECT_THROW((void)run_sibling_cases(config, plat, {}, lps), Error);
}

TEST(SampleGridParams, DrawsFromTableOneValues) {
  const platform::Table1Grid grid;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto p = sample_grid_params(grid, 25, rng);
    EXPECT_EQ(p.num_clusters, 25);
    EXPECT_NE(std::find(grid.connectivity.begin(), grid.connectivity.end(),
                        p.connectivity),
              grid.connectivity.end());
    EXPECT_NE(std::find(grid.heterogeneity.begin(), grid.heterogeneity.end(),
                        p.heterogeneity),
              grid.heterogeneity.end());
    EXPECT_NE(std::find(grid.mean_gateway_bw.begin(), grid.mean_gateway_bw.end(),
                        p.mean_gateway_bw),
              grid.mean_gateway_bw.end());
  }
}

TEST(RatioAccumulator, MeanStddevAndGuards) {
  RatioAccumulator stats;
  stats.add(5.0, 10.0);
  stats.add(10.0, 10.0);
  EXPECT_EQ(stats.count(), 2);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.75);
  // Accumulator-backed: the full spread statistics ride along.
  EXPECT_DOUBLE_EQ(stats.stddev(), std::sqrt(0.125 / 1.0));
  EXPECT_DOUBLE_EQ(stats.acc().min(), 0.5);
  EXPECT_DOUBLE_EQ(stats.acc().max(), 1.0);
  stats.add(1.0, 0.0);  // degenerate lp: skipped
  stats.add(std::nan(""), 10.0);  // not-run method: skipped
  EXPECT_EQ(stats.count(), 2);
  RatioAccumulator empty;
  EXPECT_EQ(empty.mean(), 0.0);
  EXPECT_EQ(empty.stddev(), 0.0);
}

TEST(BenchEnv, ScaleParsing) {
  // Default when unset.
  unsetenv("DLS_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  EXPECT_EQ(scaled(8), 8);
  setenv("DLS_BENCH_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 0.25);
  EXPECT_EQ(scaled(8), 2);
  EXPECT_EQ(scaled(1), 1);  // never below 1
  setenv("DLS_BENCH_SCALE", "garbage", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  unsetenv("DLS_BENCH_SCALE");
}

TEST(BenchEnv, SeedParsing) {
  unsetenv("DLS_BENCH_SEED");
  EXPECT_EQ(bench_seed(), 20240515ULL);
  setenv("DLS_BENCH_SEED", "42", 1);
  EXPECT_EQ(bench_seed(), 42ULL);
  unsetenv("DLS_BENCH_SEED");
}

}  // namespace
}  // namespace dls::exp
