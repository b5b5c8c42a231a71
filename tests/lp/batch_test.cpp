// BatchSolver determinism and shared-analysis tests (ISSUE 6).
//
// The batch layer is pure plumbing: per-thread arenas plus one shared
// column-structure cache. Its contract is that results are *bitwise*
// identical to fresh-solver sequential solves for any thread count and
// any arena history — these tests enforce exact equality, not
// tolerance-based closeness.
#include "lp/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/problem.hpp"
#include "exp/experiment.hpp"
#include "lp/simplex.hpp"
#include "platform/generator.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace dls::lp {
namespace {

/// Payoff-re-priced variants of one steady-state reduced model: same
/// constraint matrix (and thus one shared column structure), different
/// objective coefficients — the campaign-cell workload shape.
std::vector<Model> make_variants(int k, int count, std::uint64_t seed) {
  platform::GeneratorParams params;
  params.num_clusters = k;
  params.connectivity = std::min(0.4, 8.0 / k);
  params.ensure_connected = true;
  Rng rng(seed);
  const platform::Platform plat = generate_platform(params, rng);
  std::vector<Model> out;
  for (int v = 0; v < count; ++v) {
    std::vector<double> payoffs(static_cast<std::size_t>(k), 0.0);
    for (int c = 0; c < k; c += 2)
      payoffs[static_cast<std::size_t>(c)] =
          1.0 + 0.07 * static_cast<double>((v + c) % 7);
    const core::SteadyStateProblem problem(plat, payoffs, core::Objective::Sum);
    out.push_back(problem.build_reduced().model);
  }
  return out;
}

TEST(BatchSolver, BitIdenticalToSequentialForAnyJobCount) {
  const std::vector<Model> models = make_variants(20, 12, 808);

  std::vector<Solution> plain;
  for (const Model& m : models) plain.push_back(SimplexSolver().solve(m));
  for (const Solution& s : plain) ASSERT_EQ(s.status, SolveStatus::Optimal);

  for (const std::size_t jobs : {1, 2, 4}) {
    BatchSolver batch;
    ThreadPool pool(jobs);
    std::vector<Solution> got(models.size());
    parallel_for(pool, 0, models.size(), [&](std::size_t i) {
      got[i] = SimplexSolver().solve(models[i], nullptr, &batch.local_arena());
    }, 1);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].status, SolveStatus::Optimal);
      EXPECT_EQ(got[i].objective, plain[i].objective) << "jobs " << jobs;
      EXPECT_EQ(got[i].iterations, plain[i].iterations) << "jobs " << jobs;
      EXPECT_EQ(got[i].x, plain[i].x) << "jobs " << jobs;
      EXPECT_EQ(got[i].duals, plain[i].duals) << "jobs " << jobs;
    }
  }
}

TEST(BatchSolver, SharedStructureBuiltOncePerMatrix) {
  const std::vector<Model> models = make_variants(20, 8, 4711);
  BatchSolver batch;
  std::vector<Solution> got;
  for (const Model& m : models)
    got.push_back(SimplexSolver().solve(m, nullptr, &batch.local_arena()));
  for (const Solution& s : got) ASSERT_EQ(s.status, SolveStatus::Optimal);

  // All 8 variants share one constraint matrix: exactly one column
  // structure is ever built, and later solves reuse it (first via the
  // arena-local shortcut, hence hits can be 0 with a single worker).
  const BatchSolver::Stats stats = batch.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.arenas, 1u);
  EXPECT_TRUE(got.back().column_cache_hit);
  EXPECT_FALSE(got.front().column_cache_hit);
}

TEST(BatchSolver, WarmCapsuleWorksThroughBatch) {
  const std::vector<Model> models = make_variants(16, 2, 12);
  BatchSolver batch;
  const SimplexSolver solver;
  WarmState state;
  const Solution cold = solver.solve(models[0], &state, &batch.local_arena());
  ASSERT_EQ(cold.status, SolveStatus::Optimal);
  EXPECT_EQ(cold.warm_kind, WarmKind::Cold);
  const Solution warm = solver.solve(models[1], &state, &batch.local_arena());
  ASSERT_EQ(warm.status, SolveStatus::Optimal);
  EXPECT_NE(warm.warm_kind, WarmKind::Cold);
  // Warm and cold agree on the optimum, though possibly via different
  // vertices on a degenerate face — so near, not bitwise.
  const Solution cold_ref = SimplexSolver().solve(models[1]);
  EXPECT_NEAR(warm.objective, cold_ref.objective,
              1e-9 * std::max(1.0, std::abs(cold_ref.objective)));
}

TEST(BatchSolver, LocalArenaReuseMatchesColdSolves) {
  const std::vector<Model> models = make_variants(24, 4, 3333);
  BatchSolver batch;
  SolveArena& arena = batch.local_arena();
  const SimplexSolver solver{SimplexOptions{}};
  for (const Model& m : models) {
    const Solution via_arena = solver.solve(m, nullptr, &arena);
    const Solution cold = solver.solve(m);
    ASSERT_EQ(via_arena.status, SolveStatus::Optimal);
    EXPECT_EQ(via_arena.objective, cold.objective);
    EXPECT_EQ(via_arena.iterations, cold.iterations);
    EXPECT_EQ(via_arena.x, cold.x);
  }
}

TEST(BatchSolver, ArenaHistoryAcrossFactorizationsNeverLeaks) {
  // A hypersparse solve, then a dense-inverse solve, then the first
  // model again, all on one arena: the third solve must reproduce a
  // fresh-arena solve bit for bit whatever the dense path left behind.
  const Model big = make_variants(48, 1, 5).front();
  const Model small = make_variants(12, 1, 5).front();
  const SimplexSolver solver;
  const Solution fresh = solver.solve(big);
  ASSERT_EQ(fresh.status, SolveStatus::Optimal);
  ASSERT_EQ(fresh.factorization_used, Factorization::SparseLu);

  BatchSolver batch;
  SolveArena& arena = batch.local_arena();
  (void)solver.solve(big, nullptr, &arena);
  const Solution dense = solver.solve(small, nullptr, &arena);
  ASSERT_EQ(dense.status, SolveStatus::Optimal);
  ASSERT_EQ(dense.factorization_used, Factorization::DenseInverse);
  const Solution again = solver.solve(big, nullptr, &arena);
  ASSERT_EQ(again.status, SolveStatus::Optimal);
  EXPECT_EQ(again.iterations, fresh.iterations);
  EXPECT_EQ(again.objective, fresh.objective);
  EXPECT_EQ(again.x, fresh.x);
  EXPECT_EQ(again.duals, fresh.duals);
}

TEST(BatchSolver, RunCaseThroughBatchMatchesPlainRunCase) {
  // One BatchSolver shared across cases (its arena and column cache carry
  // every earlier case's history) against a fresh one per case: the
  // values must not depend on that history.
  exp::CaseConfig config;
  config.params.num_clusters = 12;
  config.params.connectivity = 0.4;
  config.params.ensure_connected = true;
  config.with_lprr = true;  // exercises the arena across ~K^2 solves

  BatchSolver shared;
  for (const std::uint64_t seed : {31337ULL, 7ULL, 31337ULL}) {
    config.seed = seed;
    Rng rng(seed);
    const platform::Platform plat = generate_platform(config.params, rng);
    BatchSolver fresh;
    const exp::CaseResult plain = exp::run_case(config, plat, fresh);
    const exp::CaseResult batched = exp::run_case(config, plat, shared);

    ASSERT_TRUE(plain.ok);
    ASSERT_TRUE(batched.ok);
    EXPECT_EQ(plain.lp, batched.lp) << "seed " << seed;
    EXPECT_EQ(plain.g, batched.g) << "seed " << seed;
    EXPECT_EQ(plain.lpr, batched.lpr) << "seed " << seed;
    EXPECT_EQ(plain.lprg, batched.lprg) << "seed " << seed;
    EXPECT_EQ(plain.lprr, batched.lprr) << "seed " << seed;
  }
  // run_case threads the batch's arena through the heuristics, so the
  // footprint to check is the shared store: structures were built, the
  // repeated case found them, and one arena was used.
  EXPECT_GE(shared.stats().cache_misses, 1u);
  EXPECT_GE(shared.stats().cache_hits, 1u);
  EXPECT_EQ(shared.stats().arenas, 1u);
}

}  // namespace
}  // namespace dls::lp
