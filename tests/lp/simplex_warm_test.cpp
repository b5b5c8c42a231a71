// Warm-start tests: statuses-only capsules (a Basis without its
// factorization, refactorized on restore) and the full WarmState capsule
// (factorized basis carried across solves of same-matrix models),
// including the composite bound phase 1 that repairs a restored basis
// whose basic values moved outside their bounds.
#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/model.hpp"
#include "support/rng.hpp"

namespace dls::lp {
namespace {

constexpr double kTol = 1e-6;

/// Random bounded-variable LP with <= rows and non-negative rhs (the
/// shape of every model in this repo: the cold all-slack start is
/// feasible, so warm starts must win on pivots alone).
Model random_model(Rng& rng, int vars, int rows) {
  Model m;
  m.set_sense(Sense::Maximize);
  for (int j = 0; j < vars; ++j)
    m.add_variable(0.0, rng.bernoulli(0.3) ? rng.uniform(1.0, 10.0) : kInf,
                   rng.uniform(0.0, 5.0));
  for (int c = 0; c < rows; ++c) {
    std::vector<Term> terms;
    for (int j = 0; j < vars; ++j)
      if (rng.bernoulli(0.4)) terms.push_back({j, rng.uniform(0.1, 3.0)});
    if (terms.empty()) terms.push_back({static_cast<int>(rng.index(vars)), 1.0});
    m.add_constraint(std::move(terms), Relation::LessEqual,
                     rng.uniform(5.0, 50.0));
  }
  // Box row over every variable so no cost direction is unbounded.
  std::vector<Term> box;
  for (int j = 0; j < vars; ++j) box.push_back({j, 1.0});
  m.add_constraint(std::move(box), Relation::LessEqual, rng.uniform(50.0, 100.0));
  return m;
}

/// A capsule carrying statuses only: no basic set, no factorization and
/// no matrix fingerprint, so the solver restores it by refactorizing the
/// basic set (WarmKind::Basis).
WarmState statuses_only(const Basis& basis) {
  WarmState state;
  state.basis = basis;
  state.valid = true;
  return state;
}

TEST(SimplexWarm, SolutionCarriesOptimalBasis) {
  Rng rng(3);
  const Model m = random_model(rng, 12, 6);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  int basics = 0;
  for (const BasisStatus st : s.basis.variables) basics += st == BasisStatus::Basic;
  for (const BasisStatus st : s.basis.slacks) basics += st == BasisStatus::Basic;
  EXPECT_EQ(basics, m.num_constraints());
}

TEST(SimplexWarm, RestartFromOwnBasisTakesNoPivots) {
  Rng rng(5);
  const Model m = random_model(rng, 20, 10);
  const Solution cold = SimplexSolver().solve(m);
  ASSERT_EQ(cold.status, SolveStatus::Optimal);
  WarmState seed = statuses_only(cold.basis);
  const Solution warm = SimplexSolver().solve(m, &seed);
  ASSERT_EQ(warm.status, SolveStatus::Optimal);
  EXPECT_EQ(warm.warm_kind, WarmKind::Basis);
  EXPECT_EQ(warm.iterations, 0);
  EXPECT_NEAR(warm.objective, cold.objective, kTol);
}

TEST(SimplexWarm, PerturbedCostsReachSameOptimumWithFewerPivots) {
  Rng rng(7);
  int warm_pivots = 0, cold_pivots = 0;
  for (int trial = 0; trial < 20; ++trial) {
    Model m = random_model(rng, 24, 12);
    const Solution base = SimplexSolver().solve(m);
    ASSERT_EQ(base.status, SolveStatus::Optimal);
    // Perturb a few objective coefficients (an "arrival" changes costs).
    for (int j = 0; j < m.num_variables(); ++j)
      if (rng.bernoulli(0.2))
        m.set_objective_coef(j, rng.uniform(0.0, 5.0));
    const Solution cold = SimplexSolver().solve(m);
    WarmState seed = statuses_only(base.basis);
    const Solution warm = SimplexSolver().solve(m, &seed);
    ASSERT_EQ(cold.status, SolveStatus::Optimal);
    ASSERT_EQ(warm.status, SolveStatus::Optimal);
    EXPECT_EQ(warm.warm_kind, WarmKind::Basis);
    EXPECT_NEAR(warm.objective, cold.objective, kTol)
        << "trial " << trial << ": warm and cold optima must agree";
    warm_pivots += warm.iterations;
    cold_pivots += cold.iterations;
  }
  // A single warm solve may wander past its cold twin, but across the
  // batch the warm starts must clearly win on pivots.
  EXPECT_LT(warm_pivots * 2, cold_pivots);
}

TEST(SimplexWarm, IncompatibleBasisIsIgnored) {
  Rng rng(9);
  const Model small = random_model(rng, 6, 3);
  const Model big = random_model(rng, 20, 10);
  const Solution s = SimplexSolver().solve(small);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  WarmState seed = statuses_only(s.basis);
  const Solution t = SimplexSolver().solve(big, &seed);
  ASSERT_EQ(t.status, SolveStatus::Optimal);
  EXPECT_EQ(t.warm_kind, WarmKind::Cold);
  const Solution ref = SimplexSolver().solve(big);
  EXPECT_NEAR(t.objective, ref.objective, kTol);
}

TEST(SimplexWarm, TightenedBoundsAreRepairedNotRejected) {
  // An optimal basic variable clamped to [0,0] afterwards (an online
  // "departure") leaves the restored basis primal infeasible; the
  // composite bound phase 1 must drive it back and still reach the new
  // optimum cold solving finds.
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    Model m = random_model(rng, 24, 12);
    const Solution base = SimplexSolver().solve(m);
    ASSERT_EQ(base.status, SolveStatus::Optimal);
    // Clamp the first few positive variables to zero.
    int clamped = 0;
    for (int j = 0; j < m.num_variables() && clamped < 4; ++j) {
      if (base.x[j] > 0.5) {
        m.set_bounds(j, 0.0, 0.0);
        m.set_objective_coef(j, 0.0);
        ++clamped;
      }
    }
    ASSERT_GT(clamped, 0);
    const Solution cold = SimplexSolver().solve(m);
    WarmState seed = statuses_only(base.basis);
    const Solution warm = SimplexSolver().solve(m, &seed);
    ASSERT_EQ(cold.status, SolveStatus::Optimal) << "trial " << trial;
    ASSERT_EQ(warm.status, SolveStatus::Optimal) << "trial " << trial;
    EXPECT_NEAR(warm.objective, cold.objective, kTol) << "trial " << trial;
    for (int j = 0; j < m.num_variables(); ++j) {
      EXPECT_LE(warm.x[j], m.upper_bound(j) + kTol);
      EXPECT_GE(warm.x[j], m.lower_bound(j) - kTol);
    }
  }
}

TEST(SimplexWarm, CapsuleChainsAcrossBoundAndCostChanges) {
  // The WarmState capsule carries the factorized basis across a long
  // chain of arrival-like (widen bounds, raise costs) and
  // departure-like (clamp to zero) edits; every solve must match the
  // plain cold optimum.
  Rng rng(13);
  Model m = random_model(rng, 30, 15);
  // Start with half the variables "idle": fixed to zero.
  std::vector<char> active(static_cast<std::size_t>(m.num_variables()), 1);
  for (int j = 0; j < m.num_variables(); j += 2) {
    m.set_bounds(j, 0.0, 0.0);
    m.set_objective_coef(j, 0.0);
    active[static_cast<std::size_t>(j)] = 0;
  }
  const SimplexSolver solver;
  WarmState state;
  int warm_used = 0;
  for (int step = 0; step < 40; ++step) {
    const int j = static_cast<int>(rng.index(m.num_variables()));
    if (active[static_cast<std::size_t>(j)]) {
      m.set_bounds(j, 0.0, 0.0);
      m.set_objective_coef(j, 0.0);
      active[static_cast<std::size_t>(j)] = 0;
    } else {
      m.set_bounds(j, 0.0, kInf);
      m.set_objective_coef(j, rng.uniform(0.5, 5.0));
      active[static_cast<std::size_t>(j)] = 1;
    }
    const Solution warm = solver.solve(m, &state);
    const Solution cold = solver.solve(m);
    ASSERT_EQ(warm.status, SolveStatus::Optimal) << "step " << step;
    ASSERT_EQ(cold.status, SolveStatus::Optimal) << "step " << step;
    EXPECT_NEAR(warm.objective, cold.objective, kTol) << "step " << step;
    warm_used += warm.warm_kind != WarmKind::Cold;
  }
  // The first solve is cold (empty capsule); the rest should all reuse it.
  EXPECT_GE(warm_used, 39);
}

TEST(SimplexWarm, CapsuleFromDifferentMatrixIsRejected) {
  Rng rng(17);
  const Model a = random_model(rng, 20, 10);
  Rng rng2(18);
  const Model b = random_model(rng2, 20, 10);  // same shape, different rows
  const SimplexSolver solver;
  WarmState state;
  const Solution sa = solver.solve(a, &state);
  ASSERT_EQ(sa.status, SolveStatus::Optimal);
  ASSERT_TRUE(state.valid);
  const Solution sb = solver.solve(b, &state);
  ASSERT_EQ(sb.status, SolveStatus::Optimal);
  // A fingerprint mismatch never restores the capsule whole: at most its
  // statuses are retried against the new matrix.
  EXPECT_NE(sb.warm_kind, WarmKind::Capsule);
  const Solution ref = solver.solve(b);
  EXPECT_NEAR(sb.objective, ref.objective, kTol);
}

TEST(SimplexWarm, CorruptedCapsuleWithDuplicateBasicsFallsBackCold) {
  Rng rng(23);
  const Model m = random_model(rng, 16, 8);
  const SimplexSolver solver;
  WarmState state;
  const Solution base = solver.solve(m, &state);
  ASSERT_EQ(base.status, SolveStatus::Optimal);
  ASSERT_TRUE(state.valid);
  // Duplicate one basic entry: statuses still count m_ basics and every
  // listed entry is individually Basic, but the list is inconsistent.
  ASSERT_GE(state.basic_vars.size(), 2u);
  state.basic_vars[0] = state.basic_vars[1];
  const Solution s = solver.solve(m, &state);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_EQ(s.warm_kind, WarmKind::Cold);
  EXPECT_NEAR(s.objective, base.objective, kTol);
}

TEST(SimplexWarm, InvalidatedCapsuleForcesColdButRefreshes) {
  Rng rng(19);
  const Model m = random_model(rng, 16, 8);
  const SimplexSolver solver;
  WarmState state;
  (void)solver.solve(m, &state);
  ASSERT_TRUE(state.valid);
  state.invalidate();
  const Solution cold = solver.solve(m, &state);
  EXPECT_EQ(cold.warm_kind, WarmKind::Cold);
  EXPECT_TRUE(state.valid);  // refreshed by the solve
  const Solution warm = solver.solve(m, &state);
  EXPECT_EQ(warm.warm_kind, WarmKind::Capsule);
  EXPECT_EQ(warm.iterations, 0);
}

// ---- LP edge cases the LU path must preserve (ISSUE 3) ---------------------

SimplexOptions with_factorization(Factorization f) {
  SimplexOptions opt;
  opt.factorization = f;
  return opt;
}

const Factorization kBothPaths[] = {Factorization::SparseLu,
                                    Factorization::DenseInverse};

TEST(SimplexLu, SingularWarmBasisIsRejectedNotCrashed) {
  // Two structurally identical columns marked basic make the warm basis
  // singular; the refactorization must fail cleanly and fall back cold.
  Model m;
  m.set_sense(Sense::Maximize);
  const int x0 = m.add_variable(0.0, 10.0, 3.0);
  const int x1 = m.add_variable(0.0, 10.0, 2.0);
  m.add_constraint({{x0, 1.0}, {x1, 1.0}}, Relation::LessEqual, 8.0);
  m.add_constraint({{x0, 2.0}, {x1, 2.0}}, Relation::LessEqual, 30.0);

  Basis singular;
  singular.variables = {BasisStatus::Basic, BasisStatus::Basic};
  singular.slacks = {BasisStatus::AtLower, BasisStatus::AtLower};

  for (const Factorization f : kBothPaths) {
    const SimplexSolver solver(with_factorization(f));
    WarmState seed = statuses_only(singular);
    const Solution warm = solver.solve(m, &seed);
    ASSERT_EQ(warm.status, SolveStatus::Optimal);
    EXPECT_EQ(warm.warm_kind, WarmKind::Cold);  // singular basis silently discarded
    const Solution cold = solver.solve(m);
    EXPECT_NEAR(warm.objective, cold.objective, kTol);
  }
}

TEST(SimplexLu, RefactorIntervalDriftRecovery) {
  // Forcing a refactorization after (nearly) every pivot and never
  // refactorizing inside a solve must both reach the default path's
  // optimum: the factorization rebuild may not disturb the iterate.
  Rng rng(29);
  for (int trial = 0; trial < 10; ++trial) {
    const Model m = random_model(rng, 24, 12);
    const Solution ref = SimplexSolver().solve(m);
    ASSERT_EQ(ref.status, SolveStatus::Optimal);
    for (const Factorization f : kBothPaths) {
      SimplexOptions eager = with_factorization(f);
      eager.refactor_interval = 1;
      SimplexOptions lazy = with_factorization(f);
      lazy.refactor_interval = 1'000'000;
      const Solution se = SimplexSolver(eager).solve(m);
      const Solution sl = SimplexSolver(lazy).solve(m);
      ASSERT_EQ(se.status, SolveStatus::Optimal) << "trial " << trial;
      ASSERT_EQ(sl.status, SolveStatus::Optimal) << "trial " << trial;
      EXPECT_NEAR(se.objective, ref.objective, kTol) << "trial " << trial;
      EXPECT_NEAR(sl.objective, ref.objective, kTol) << "trial " << trial;
    }
  }
}

TEST(SimplexLu, BlandAntiCyclingAfterStallStillReachesOptimum) {
  // stall_limit = 0 flips to Bland's rule after the first degenerate
  // pivot; on a highly degenerate model (many zero-rhs rows) both
  // factorizations must still terminate at the reference optimum.
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    Model m;
    m.set_sense(Sense::Maximize);
    const int vars = 10;
    for (int j = 0; j < vars; ++j) m.add_variable(0.0, kInf, rng.uniform(0.5, 2.0));
    for (int c = 0; c < 6; ++c) {
      std::vector<Term> terms;
      for (int j = 0; j < vars; ++j)
        if (rng.bernoulli(0.5)) terms.push_back({j, rng.uniform(0.2, 2.0)});
      if (terms.empty()) terms.push_back({0, 1.0});
      // Half the rows are degenerate (rhs 0), forcing zero-length steps.
      m.add_constraint(std::move(terms), Relation::LessEqual,
                       rng.bernoulli(0.5) ? 0.0 : rng.uniform(1.0, 10.0));
    }
    std::vector<Term> box;
    for (int j = 0; j < vars; ++j) box.push_back({j, 1.0});
    m.add_constraint(std::move(box), Relation::LessEqual, 50.0);

    const Solution ref = SimplexSolver().solve(m);
    ASSERT_EQ(ref.status, SolveStatus::Optimal);
    for (const Factorization f : kBothPaths) {
      SimplexOptions opt = with_factorization(f);
      opt.stall_limit = 0;
      const Solution s = SimplexSolver(opt).solve(m);
      ASSERT_EQ(s.status, SolveStatus::Optimal) << "trial " << trial;
      EXPECT_NEAR(s.objective, ref.objective, kTol) << "trial " << trial;
    }
  }
}

TEST(SimplexLu, WarmAndColdAgreeUnderBothFactorizations) {
  // The capsule-chain invariant re-run explicitly against the sparse LU
  // path and the dense baseline: every warm solve must match its cold
  // twin's objective, and the two factorizations must agree with each
  // other.
  for (const Factorization f : kBothPaths) {
    Rng rng(37);
    Model m = random_model(rng, 24, 12);
    const SimplexSolver solver(with_factorization(f));
    WarmState state;
    for (int step = 0; step < 15; ++step) {
      const int j = static_cast<int>(rng.index(m.num_variables()));
      if (m.upper_bound(j) == 0.0) {
        m.set_bounds(j, 0.0, kInf);
        m.set_objective_coef(j, rng.uniform(0.5, 5.0));
      } else {
        m.set_bounds(j, 0.0, 0.0);
        m.set_objective_coef(j, 0.0);
      }
      const Solution warm = solver.solve(m, &state);
      const Solution cold = solver.solve(m);
      ASSERT_EQ(warm.status, SolveStatus::Optimal) << "step " << step;
      ASSERT_EQ(cold.status, SolveStatus::Optimal) << "step " << step;
      EXPECT_NEAR(warm.objective, cold.objective, kTol) << "step " << step;
    }
  }
}

TEST(SimplexLu, SparseCapsuleShrinksBelowDenseInverse) {
  // The memory claim behind the migration: on a model shaped like ours
  // (each column touches a handful of rows) the capsule's factorization
  // footprint must scale with the basis nonzeros, far below the 8*m^2
  // bytes the dense inverse used to pin.
  Rng rng(41);
  Model m;
  m.set_sense(Sense::Maximize);
  const int rows = 120, vars = 240;
  std::vector<std::vector<Term>> row_terms(rows);
  for (int j = 0; j < vars; ++j) {
    m.add_variable(0.0, kInf, rng.uniform(0.5, 3.0));
    // Each variable appears in 2-3 rows, like an alpha column touching
    // its gateway rows plus a link row.
    const int touches = 2 + static_cast<int>(rng.index(2));
    for (int t = 0; t < touches; ++t)
      row_terms[rng.index(rows)].push_back({j, rng.uniform(0.2, 2.0)});
  }
  for (int c = 0; c < rows; ++c) {
    if (row_terms[c].empty()) row_terms[c].push_back({c % vars, 1.0});
    m.add_constraint(std::move(row_terms[c]), Relation::LessEqual,
                     rng.uniform(5.0, 50.0));
  }
  const SimplexSolver solver;
  WarmState state;
  const Solution s = solver.solve(m, &state);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  ASSERT_TRUE(state.valid);
  const std::size_t dense_bytes = static_cast<std::size_t>(m.num_constraints()) *
                                  static_cast<std::size_t>(m.num_constraints()) *
                                  sizeof(double);
  // The eta file accumulated since the last refactorization dominates a
  // fresh capsule, so the margin here is modest; it widens with m (the
  // lp_scaling bench tracks the production-size ratio).
  EXPECT_LT(state.memory_bytes(), dense_bytes / 2);

  // A tighter refactor interval compacts the eta file and shrinks the
  // capsule further.
  SimplexOptions tight;
  tight.refactor_interval = 10;
  WarmState small_state;
  const Solution s2 = SimplexSolver(tight).solve(m, &small_state);
  ASSERT_EQ(s2.status, SolveStatus::Optimal);
  ASSERT_TRUE(small_state.valid);
  EXPECT_LT(small_state.memory_bytes(), dense_bytes / 4);
  EXPECT_LE(small_state.memory_bytes(), state.memory_bytes());
}

TEST(SimplexLu, CapsuleBytesCarryNoFactorizationScratch) {
  // The elimination scratch lives in the solve arena, not in BasisLu, so
  // a capsule's footprint is the factors alone. These byte counts were
  // recorded before the scratch moved into the arena (LP64).
  Rng rng(41);
  Model m;
  m.set_sense(Sense::Maximize);
  const int rows = 120, vars = 240;
  std::vector<std::vector<Term>> row_terms(rows);
  for (int j = 0; j < vars; ++j) {
    m.add_variable(0.0, kInf, rng.uniform(0.5, 3.0));
    const int touches = 2 + static_cast<int>(rng.index(2));
    for (int t = 0; t < touches; ++t)
      row_terms[rng.index(rows)].push_back({j, rng.uniform(0.2, 2.0)});
  }
  for (int c = 0; c < rows; ++c) {
    if (row_terms[c].empty()) row_terms[c].push_back({c % vars, 1.0});
    m.add_constraint(std::move(row_terms[c]), Relation::LessEqual,
                     rng.uniform(5.0, 50.0));
  }
  WarmState state;
  ASSERT_EQ(SimplexSolver().solve(m, &state).status, SolveStatus::Optimal);
  EXPECT_EQ(state.memory_bytes(), 9276u);

  // The capsule chain of CapsuleChainsAcrossBoundAndCostChanges, forced
  // onto the sparse LU (its 16 rows would otherwise pick the dense path).
  Rng chain_rng(13);
  Model chain = random_model(chain_rng, 30, 15);
  std::vector<char> active(static_cast<std::size_t>(chain.num_variables()), 1);
  for (int j = 0; j < chain.num_variables(); j += 2) {
    chain.set_bounds(j, 0.0, 0.0);
    chain.set_objective_coef(j, 0.0);
    active[static_cast<std::size_t>(j)] = 0;
  }
  SimplexOptions sparse;
  sparse.factorization = Factorization::SparseLu;
  const SimplexSolver solver(sparse);
  WarmState chain_state;
  std::size_t bytes_sum = 0;
  for (int step = 0; step < 40; ++step) {
    const int j = static_cast<int>(chain_rng.index(chain.num_variables()));
    if (active[static_cast<std::size_t>(j)]) {
      chain.set_bounds(j, 0.0, 0.0);
      chain.set_objective_coef(j, 0.0);
      active[static_cast<std::size_t>(j)] = 0;
    } else {
      chain.set_bounds(j, 0.0, kInf);
      chain.set_objective_coef(j, chain_rng.uniform(0.5, 5.0));
      active[static_cast<std::size_t>(j)] = 1;
    }
    ASSERT_EQ(solver.solve(chain, &chain_state).status, SolveStatus::Optimal);
    bytes_sum += chain_state.memory_bytes();
  }
  EXPECT_EQ(chain_state.memory_bytes(), 2066u);
  EXPECT_EQ(bytes_sum, 82960u);
}

// ---- basis repair across matrix changes (ISSUE 4) --------------------------
//
// A capsule whose matrix fingerprint no longer matches is retried as a
// statuses-only start against the new matrix. Capacity-loss events must
// recover to the cold optimum under both factorizations, whether the
// carried basis stays feasible, turns infeasible (composite bound
// repair), or goes singular (cold fallback).

TEST(SimplexWarmRepair, CapacityLossRepairsToColdOptimum) {
  for (const Factorization f :
       {Factorization::SparseLu, Factorization::DenseInverse}) {
    Rng rng(41);
    Model m = random_model(rng, 24, 12);
    const SimplexSolver solver(with_factorization(f));
    WarmState state;
    const Solution base = solver.solve(m, &state);
    ASSERT_EQ(base.status, SolveStatus::Optimal);
    ASSERT_TRUE(state.valid);

    // Capacity loss: shrink every coefficient of row 0 (a bandwidth cut
    // re-prices alpha/pbw terms) and tighten its rhs. The matrix
    // fingerprint changes, so the capsule cannot restore whole; the
    // repair path must still reach the cold optimum.
    Model cut = m;
    std::vector<Term> row(cut.row(0).begin(), cut.row(0).end());
    for (Term& t : row) t.coef *= 2.0;  // each unit now costs double
    cut.set_row(0, std::move(row));
    cut.set_rhs(0, cut.rhs(0) * 0.6);

    const Solution warm = solver.solve(cut, &state);
    ASSERT_EQ(warm.status, SolveStatus::Optimal);
    EXPECT_EQ(warm.warm_kind, WarmKind::Basis);
    const Solution cold = SimplexSolver(with_factorization(f)).solve(cut);
    EXPECT_NEAR(warm.objective, cold.objective, kTol)
        << "factorization " << static_cast<int>(f);
    EXPECT_LE(warm.iterations, cold.iterations);

    // The same chain through one persistent arena is bit-identical.
    SolveArena arena;
    WarmState arena_state;
    const Solution arena_base = solver.solve(m, &arena_state, &arena);
    const Solution arena_warm = solver.solve(cut, &arena_state, &arena);
    EXPECT_EQ(arena_base.x, base.x);
    EXPECT_EQ(arena_base.duals, base.duals);
    EXPECT_EQ(arena_warm.warm_kind, warm.warm_kind);
    EXPECT_EQ(arena_warm.objective, warm.objective);
    EXPECT_EQ(arena_warm.iterations, warm.iterations);
    EXPECT_EQ(arena_warm.phase1_iterations, warm.phase1_iterations);
    EXPECT_EQ(arena_warm.x, warm.x);
    EXPECT_EQ(arena_warm.duals, warm.duals);
  }
}

TEST(SimplexWarmRepair, InfeasibleCarriedBasisIsRepairedByBoundPhase1) {
  for (const Factorization f :
       {Factorization::SparseLu, Factorization::DenseInverse}) {
    Rng rng(43);
    Model m = random_model(rng, 20, 10);
    const SimplexSolver solver(with_factorization(f));
    WarmState state;
    const Solution base = solver.solve(m, &state);
    ASSERT_EQ(base.status, SolveStatus::Optimal);

    // Deep cut: rescale every row's coefficients so the carried basic
    // values land far outside their bounds — the statuses-only restore
    // is primal infeasible and must go through the composite repair.
    Model cut = m;
    for (int c = 0; c < cut.num_constraints(); ++c) {
      std::vector<Term> row(cut.row(c).begin(), cut.row(c).end());
      for (Term& t : row) t.coef *= (c % 2 == 0) ? 3.0 : 0.5;
      cut.set_row(c, std::move(row));
    }
    const Solution warm = solver.solve(cut, &state);
    ASSERT_EQ(warm.status, SolveStatus::Optimal);
    const Solution cold = SimplexSolver(with_factorization(f)).solve(cut);
    ASSERT_EQ(cold.status, SolveStatus::Optimal);
    // Whether the repair survived or fell back cold, the optimum matches.
    EXPECT_NEAR(warm.objective, cold.objective, kTol)
        << "factorization " << static_cast<int>(f);
    if (warm.warm_kind != WarmKind::Cold) {
      EXPECT_EQ(warm.warm_kind, WarmKind::Basis);
      EXPECT_GT(warm.phase1_iterations, 0);  // the repair actually ran
    }
  }
}

TEST(SimplexWarmRepair, SingularizedBasisFallsBackCold) {
  for (const Factorization f :
       {Factorization::SparseLu, Factorization::DenseInverse}) {
    // Two structural variables both basic at the optimum; the capacity
    // event collapses their columns to be linearly dependent, so the
    // refactorization of the carried basic set must fail cleanly.
    Model m;
    m.set_sense(Sense::Maximize);
    m.add_variable(0.0, kInf, 3.0);
    m.add_variable(0.0, kInf, 2.0);
    m.add_constraint({{0, 1.0}, {1, 2.0}}, Relation::LessEqual, 10.0);
    m.add_constraint({{0, 2.0}, {1, 1.0}}, Relation::LessEqual, 10.0);
    const SimplexSolver solver(with_factorization(f));
    WarmState state;
    const Solution base = solver.solve(m, &state);
    ASSERT_EQ(base.status, SolveStatus::Optimal);
    ASSERT_TRUE(state.valid);
    // Both x and y are basic (optimum at the row intersection).
    ASSERT_EQ(state.basis.variables[0], BasisStatus::Basic);
    ASSERT_EQ(state.basis.variables[1], BasisStatus::Basic);

    Model cut = m;
    cut.set_row(0, {{0, 1.0}, {1, 2.0}});
    cut.set_row(1, {{0, 2.0}, {1, 4.0}});  // now a multiple of row 0
    const Solution warm = solver.solve(cut, &state);
    ASSERT_EQ(warm.status, SolveStatus::Optimal);
    EXPECT_EQ(warm.warm_kind, WarmKind::Cold);  // singular basis discarded
    const Solution cold = SimplexSolver(with_factorization(f)).solve(cut);
    EXPECT_NEAR(warm.objective, cold.objective, kTol);
  }
}

}  // namespace
}  // namespace dls::lp
