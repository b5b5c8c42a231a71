// Pricing-rule and refactorization-policy equivalence tests (ISSUE 6).
//
// Every pricing rule (Dantzig, SteepestEdge) under every basis
// representation (SparseLu, DenseInverse) walks a different pivot path,
// but they all solve the same LP: the optimal objective must agree to
// rounding error on every model. The refactorization policy (eta-fill
// trigger, capsule compression) only changes *when* the basis is
// refactorized, never what it represents — so any policy setting must
// reproduce the reference solve exactly. The hypersparse toggle changes
// only how basis solves sweep, so both settings must agree bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "platform/generator.hpp"
#include "support/rng.hpp"

namespace dls::lp {
namespace {

constexpr double kObjTol = 1e-6;

const std::vector<Pricing> kRules{Pricing::Dantzig, Pricing::SteepestEdge};
const std::vector<Factorization> kFactorizations{Factorization::SparseLu,
                                                 Factorization::DenseInverse};

Solution solve_with(const Model& m, Factorization f, Pricing p,
                    SimplexOptions opt = {}) {
  opt.factorization = f;
  opt.pricing = p;
  return SimplexSolver(opt).solve(m);
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double d : v) out.push_back(bits(d));
  return out;
}

/// Hypersparse solves are bit-identical to the dense passes by contract:
/// the same pivot path, the same refactorization points, the same bits.
void expect_same_solve(const Solution& hyper, const Solution& dense,
                       const std::string& where) {
  ASSERT_EQ(hyper.status, SolveStatus::Optimal) << where;
  ASSERT_EQ(dense.status, SolveStatus::Optimal) << where;
  EXPECT_EQ(hyper.iterations, dense.iterations) << where;
  EXPECT_EQ(hyper.phase1_iterations, dense.phase1_iterations) << where;
  EXPECT_EQ(hyper.refactorizations, dense.refactorizations) << where;
  EXPECT_EQ(hyper.warm_kind, dense.warm_kind) << where;
  EXPECT_EQ(bits(hyper.objective), bits(dense.objective)) << where;
  EXPECT_EQ(bits(hyper.x), bits(dense.x)) << where;
  EXPECT_EQ(bits(hyper.duals), bits(dense.duals)) << where;
}

bool close(double a, double b) {
  return std::abs(a - b) <= kObjTol * std::max(1.0, std::abs(a));
}

/// Random feasible maximize-LP with box bounds (interior-point trick).
Model make_random_lp(Rng& rng, int n, int m) {
  Model model;
  std::vector<double> interior(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const double hi = rng.uniform(1.0, 20.0);
    model.add_variable(0.0, hi, rng.uniform(-5.0, 5.0));
    interior[static_cast<std::size_t>(j)] = rng.uniform(0.0, hi);
  }
  model.set_sense(Sense::Maximize);
  for (int i = 0; i < m; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.4) && terms.size() + 1 < 12)
        terms.push_back({j, rng.uniform(-3.0, 3.0)});
    if (terms.empty()) terms.push_back({static_cast<int>(rng.index(n)), 1.0});
    double activity = 0.0;
    for (const Term& t : terms)
      activity += t.coef * interior[static_cast<std::size_t>(t.var)];
    model.add_constraint(std::move(terms), Relation::LessEqual,
                         activity + rng.uniform(0.1, 5.0));
  }
  return model;
}

/// The repo's real workload: a Table-1-style steady-state reduced model.
Model make_steady_model(int k, std::uint64_t seed) {
  platform::GeneratorParams params;
  params.num_clusters = k;
  params.connectivity = std::min(0.4, 8.0 / k);
  params.ensure_connected = true;
  Rng rng(seed);
  const platform::Platform plat = generate_platform(params, rng);
  std::vector<double> payoffs(static_cast<std::size_t>(k), 0.0);
  for (int c = 0; c < k; c += 2)
    payoffs[static_cast<std::size_t>(c)] = 1.0 + 0.1 * (c % 5);
  const core::SteadyStateProblem problem(plat, payoffs, core::Objective::Sum);
  return problem.build_reduced().model;
}

TEST(SimplexPricing, AllRulesAgreeOnRandomLps) {
  Rng rng(61061);
  for (int iter = 0; iter < 60; ++iter) {
    const int n = static_cast<int>(rng.uniform_int(2, 14));
    const int m = static_cast<int>(rng.uniform_int(1, 14));
    const Model model = make_random_lp(rng, n, m);

    const Solution ref =
        solve_with(model, Factorization::DenseInverse, Pricing::Dantzig);
    ASSERT_EQ(ref.status, SolveStatus::Optimal) << "iter " << iter;
    for (const Factorization f : kFactorizations) {
      for (const Pricing p : kRules) {
        const Solution s = solve_with(model, f, p);
        ASSERT_EQ(s.status, SolveStatus::Optimal) << "iter " << iter;
        EXPECT_TRUE(close(ref.objective, s.objective))
            << "iter " << iter << ": " << ref.objective << " vs "
            << s.objective;
        EXPECT_TRUE(model.is_feasible(s.x, 1e-6)) << "iter " << iter;
      }
    }
  }
}

TEST(SimplexPricing, AllRulesAgreeOnSteadyStateModel) {
  const Model model = make_steady_model(32, 777);
  const Solution dantzig =
      solve_with(model, Factorization::SparseLu, Pricing::Dantzig);
  ASSERT_EQ(dantzig.status, SolveStatus::Optimal);
  for (const Factorization f : kFactorizations) {
    for (const Pricing p : kRules) {
      const Solution s = solve_with(model, f, p);
      ASSERT_EQ(s.status, SolveStatus::Optimal);
      EXPECT_TRUE(close(dantzig.objective, s.objective));
    }
  }
  // The point of steepest-edge: materially fewer pivots than Dantzig on
  // the real workload (deterministic model, deterministic pivot paths).
  const Solution se =
      solve_with(model, Factorization::SparseLu, Pricing::SteepestEdge);
  EXPECT_LT(se.iterations, dantzig.iterations);
}

TEST(SimplexPricing, DegenerateTiesSolveUnderEveryRule) {
  // Heavily degenerate: every vertex of the assignment-like polytope has
  // many ties, which stresses the Bland fallback interplay.
  Model m;
  for (int j = 0; j < 6; ++j) m.add_variable(0.0, 1.0, 1.0);
  m.set_sense(Sense::Maximize);
  for (int i = 0; i < 3; ++i)
    m.add_constraint({{2 * i, 1.0}, {2 * i + 1, 1.0}}, Relation::LessEqual, 1.0);
  m.add_constraint({{0, 1.0}, {2, 1.0}, {4, 1.0}}, Relation::LessEqual, 2.0);
  m.add_constraint({{1, 1.0}, {3, 1.0}, {5, 1.0}}, Relation::LessEqual, 2.0);
  for (const Factorization f : kFactorizations) {
    for (const Pricing p : kRules) {
      const Solution s = solve_with(m, f, p);
      ASSERT_EQ(s.status, SolveStatus::Optimal);
      EXPECT_TRUE(close(3.0, s.objective));
    }
  }
}

TEST(SimplexPricing, FillTriggerMatchesFixedIntervalResults) {
  const Model model = make_steady_model(32, 4242);
  // A fill trigger that never fires leaves the pivot cap alone to space
  // the refactorizations at a fixed interval.
  SimplexOptions reference;
  reference.refactor_fill = 1e12;
  const Solution ref = SimplexSolver(reference).solve(model);
  ASSERT_EQ(ref.status, SolveStatus::Optimal);

  for (const double fill : {0.25, 1.0, 4.0}) {
    SimplexOptions opt;
    opt.refactor_fill = fill;
    const Solution s = SimplexSolver(opt).solve(model);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    // Refactorization frequency may perturb the pivot path (a refactor
    // recomputes basic values, nudging near-tied ratio tests) but never
    // the optimum it converges to.
    EXPECT_TRUE(close(ref.objective, s.objective)) << "fill " << fill;
  }
  // A tight trigger refactorizes at least as often as a loose one.
  SimplexOptions tight, loose;
  tight.refactor_fill = 0.05;
  loose.refactor_fill = 16.0;
  EXPECT_GE(SimplexSolver(tight).solve(model).refactorizations,
            SimplexSolver(loose).solve(model).refactorizations);
}

TEST(SimplexPricing, CapsuleCompressionPreservesWarmSolves) {
  const Model model = make_steady_model(24, 99);
  for (const double capsule_fill : {0.0, 0.05, 1e9}) {
    SimplexOptions opt;
    opt.capsule_eta_fill = capsule_fill;
    const SimplexSolver solver(opt);
    WarmState state;
    const Solution cold = solver.solve(model, &state);
    ASSERT_EQ(cold.status, SolveStatus::Optimal);
    const Solution warm = solver.solve(model, &state);
    ASSERT_EQ(warm.status, SolveStatus::Optimal);
    EXPECT_NE(warm.warm_kind, WarmKind::Cold);
    // A compressed capsule (fresh factorization, no eta file) and an
    // uncompressed one represent the same basis: the warm re-solve must
    // land on the same objective with zero pivots either way.
    EXPECT_EQ(warm.iterations, 0) << "capsule_fill " << capsule_fill;
    EXPECT_TRUE(close(cold.objective, warm.objective));
  }
  // Compression actually shrinks the capsule when the eta file is fat.
  SimplexOptions keep, compress;
  keep.capsule_eta_fill = 1e9;     // never compress
  compress.capsule_eta_fill = 0.0;  // always refactorize before saving
  WarmState kept, compressed;
  (void)SimplexSolver(keep).solve(model, &kept);
  (void)SimplexSolver(compress).solve(model, &compressed);
  EXPECT_LE(compressed.memory_bytes(), kept.memory_bytes());
}

TEST(SimplexPricing, AutoFactorizationUsesCrossover) {
  SimplexOptions opt;  // defaults: Factorization::Auto, steepest edge
  const Model small = make_steady_model(16, 5);  // well under the crossover
  const Solution s_small = SimplexSolver(opt).solve(small);
  ASSERT_EQ(s_small.status, SolveStatus::Optimal);
  EXPECT_EQ(s_small.factorization_used, Factorization::DenseInverse);

  const Model large = make_steady_model(48, 5);  // hundreds of rows
  const Solution s_large = SimplexSolver(opt).solve(large);
  ASSERT_EQ(s_large.status, SolveStatus::Optimal);
  EXPECT_EQ(s_large.factorization_used, Factorization::SparseLu);
  EXPECT_EQ(s_large.pricing_used, Pricing::SteepestEdge);  // default pricing

  SimplexOptions forced = opt;
  forced.factorization = Factorization::SparseLu;
  EXPECT_EQ(SimplexSolver(forced).solve(small).factorization_used,
            Factorization::SparseLu);
}

TEST(SimplexPricing, SolutionCarriesKernelStats) {
  const Model model = make_steady_model(32, 31);
  SimplexOptions opt;
  opt.refactor_fill = 0.5;
  const Solution s = SimplexSolver(opt).solve(model);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_GT(s.iterations, 0);
  EXPECT_GE(s.refactorizations, 0);
  EXPECT_GT(s.eta_peak_nnz, 0u);
}

/// Random packing LP (nonnegative rows, positive rhs and costs) plus two
/// equality rows x_a = x_b, whose slacks are fixed at [0,0]: x = 0 stays
/// feasible however many columns are pinned to zero.
Model make_packing_lp(Rng& rng, int n, int m) {
  Model model;
  model.set_sense(Sense::Maximize);
  for (int j = 0; j < n; ++j)
    model.add_variable(0.0, rng.uniform(2.0, 20.0), rng.uniform(0.5, 5.0));
  for (int i = 0; i < m; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.3)) terms.push_back({j, rng.uniform(0.2, 3.0)});
    if (terms.empty()) terms.push_back({static_cast<int>(rng.index(n)), 1.0});
    model.add_constraint(std::move(terms), Relation::LessEqual, rng.uniform(5.0, 30.0));
  }
  model.add_constraint({{1, 1.0}, {2, -1.0}}, Relation::Equal, 0.0);
  model.add_constraint({{4, 1.0}, {7, -1.0}}, Relation::Equal, 0.0);
  return model;
}

/// `model` without the columns `drop` marks (rows keep their order).
Model without_columns(const Model& model, const std::vector<char>& drop) {
  Model out;
  out.set_sense(model.sense());
  std::vector<int> map(static_cast<std::size_t>(model.num_variables()), -1);
  for (int j = 0; j < model.num_variables(); ++j)
    if (!drop[static_cast<std::size_t>(j)])
      map[static_cast<std::size_t>(j)] = out.add_variable(
          model.lower_bound(j), model.upper_bound(j), model.objective_coef(j));
  for (int c = 0; c < model.num_constraints(); ++c) {
    std::vector<Term> terms;
    for (const Term& t : model.row(c))
      if (map[static_cast<std::size_t>(t.var)] >= 0)
        terms.push_back({map[static_cast<std::size_t>(t.var)], t.coef});
    out.add_constraint(std::move(terms), model.relation(c), model.rhs(c));
  }
  return out;
}

TEST(SimplexPricing, FixedColumnsWithAttractiveCostsNeverEnter) {
  Rng rng(77);
  for (const Pricing p : kRules) {
    for (const Factorization f : kFactorizations) {
      const std::string arm = std::string(p == Pricing::Dantzig ? "dantzig" : "se") +
                              (f == Factorization::SparseLu ? "/lu" : "/dense");
      SimplexOptions opt;
      opt.pricing = p;
      opt.factorization = f;
      Model model = make_packing_lp(rng, 60, 20);
      WarmState state;
      const Solution first = SimplexSolver(opt).solve(model, &state);
      ASSERT_EQ(first.status, SolveStatus::Optimal) << arm;

      // Pin every third column, and every odd basic one, at [0,0] with
      // the best cost in the model: a solver that priced fixed columns
      // would keep choosing them.
      const int n = model.num_variables();
      std::vector<char> fixed(static_cast<std::size_t>(n), 0);
      int fixed_basic = 0;
      for (int j = 0; j < n; ++j) {
        const bool basic = first.basis.variables[j] == BasisStatus::Basic;
        if (j % 3 != 0 && !(basic && j % 2 == 1)) continue;
        fixed[static_cast<std::size_t>(j)] = 1;
        fixed_basic += basic && first.x[j] > 0.0;
        model.set_bounds(j, 0.0, 0.0);
        model.set_objective_coef(j, 50.0);
      }
      ASSERT_GT(fixed_basic, 0) << arm;  // the warm start must repair them

      const Solution warm = SimplexSolver(opt).solve(model, &state);
      ASSERT_EQ(warm.status, SolveStatus::Optimal) << arm;
      EXPECT_EQ(warm.warm_kind, WarmKind::Capsule) << arm;
      EXPECT_GT(warm.phase1_iterations, 0) << arm;
      const Solution cold = SimplexSolver(opt).solve(model);
      ASSERT_EQ(cold.status, SolveStatus::Optimal) << arm;
      // A fixed column that never enters keeps the resting place its
      // start gave it (an entered one would at least bound-flip).
      for (int j = 0; j < n; ++j) {
        if (!fixed[static_cast<std::size_t>(j)]) continue;
        EXPECT_EQ(warm.x[j], 0.0) << arm << " var " << j;
        if (first.basis.variables[j] != BasisStatus::Basic) {
          EXPECT_EQ(warm.basis.variables[j], first.basis.variables[j])
              << arm << " var " << j;
        }
        EXPECT_EQ(cold.basis.variables[j], BasisStatus::AtLower) << arm << " var " << j;
      }
      const Model kept = without_columns(model, fixed);
      const Solution ref = SimplexSolver(opt).solve(kept);
      ASSERT_EQ(ref.status, SolveStatus::Optimal) << arm;
      EXPECT_TRUE(close(warm.objective, ref.objective))
          << arm << ": " << warm.objective << " vs " << ref.objective;
      EXPECT_TRUE(close(cold.objective, ref.objective)) << arm;
      if (p != Pricing::Dantzig) continue;
      // Full-scan pricing visits the free columns in the same relative
      // order either way, so the cold solve walks the deleted model's
      // pivot path exactly.
      EXPECT_EQ(cold.iterations, ref.iterations) << arm;
      EXPECT_EQ(bits(cold.objective), bits(ref.objective)) << arm;
      for (int j = 0, k = 0; j < n; ++j) {
        if (fixed[static_cast<std::size_t>(j)]) continue;
        EXPECT_EQ(bits(cold.x[j]), bits(ref.x[k++])) << arm << " var " << j;
      }
    }
  }
}

TEST(SimplexPricing, HypersparseToggleIsBitIdentical) {
  for (const Pricing p : kRules) {
    SimplexOptions hyper;
    hyper.pricing = p;
    SimplexOptions dense = hyper;
    dense.hypersparse = false;

    // Cold solves on steady-state models above the dense-inverse
    // crossover (the only sizes that take the sparse LU path).
    for (const int k : {32, 48, 64}) {
      const Model model = make_steady_model(k, 2024 + k);
      ASSERT_GT(model.num_constraints(), 112) << "K=" << k;
      const Solution h = SimplexSolver(hyper).solve(model);
      EXPECT_EQ(h.factorization_used, Factorization::SparseLu);
      expect_same_solve(h, SimplexSolver(dense).solve(model),
                        "cold K=" + std::to_string(k));
    }

    // A warm-capsule chain: departures re-price the model in place and
    // each arm carries its own capsule from solve to solve.
    platform::GeneratorParams params;
    params.num_clusters = 40;
    params.connectivity = 0.2;
    params.ensure_connected = true;
    Rng rng(515);
    const platform::Platform plat = generate_platform(params, rng);
    std::vector<double> payoffs(40, 0.0);
    for (int c = 0; c < 40; c += 2)
      payoffs[static_cast<std::size_t>(c)] = 1.0 + 0.1 * (c % 5);
    const core::SteadyStateProblem problem(plat, payoffs, core::Objective::Sum);
    core::SteadyStateProblem::ReducedModel reduced = problem.build_reduced();
    ASSERT_GT(reduced.model.num_constraints(), 112);
    WarmState hyper_state, dense_state;
    int warm_pivots = 0;
    for (int step = 0; step < 6; ++step) {
      if (step > 0) {
        payoffs[static_cast<std::size_t>(4 * step)] =
            step % 2 == 0 ? 0.0 : 1.7;  // departures and re-weightings
        problem.with_loads(core::LoadSet::from_payoffs(payoffs))
            .update_reduced_payoffs(reduced);
      }
      const Solution h = SimplexSolver(hyper).solve(reduced.model, &hyper_state);
      const Solution d = SimplexSolver(dense).solve(reduced.model, &dense_state);
      expect_same_solve(h, d, "warm step " + std::to_string(step));
      if (step > 0) {
        EXPECT_EQ(h.warm_kind, WarmKind::Capsule);
        warm_pivots += h.iterations;
      }
    }
    EXPECT_GT(warm_pivots, 0);  // the chain really moved the basis
  }
}

// The hypersparse route keeps c_B's support as state across pivots,
// refactorizations and phases; the non-hypersparse route gathers all m
// basic costs on every call. A slot-LP warm chain at K=40 drives that
// state through the composite bound phase 1 (a departure clamps the
// released slot's alpha bounds to zero while they may still be basic),
// a basis repair after a re-pricing capacity event, and an arena that a
// K=16 dense-inverse solve used in between: both arms must agree bit
// for bit at every step.
TEST(SimplexPricing, HypersparseToggleIsBitIdenticalOnSlotChain) {
  constexpr int k = 40;
  platform::GeneratorParams params;
  params.num_clusters = k;
  params.ensure_connected = true;
  Rng prng(4242);
  platform::Platform plat = generate_platform(params, prng);
  core::LoadSet slots;
  for (int c = 0; c < k; ++c)
    for (int s = 0; s <= c % 3; ++s) {
      core::LoadSpec spec;
      spec.source = c;
      spec.weight = (c + s) % 3 == 0 ? 0.0 : 1.0 + 0.25 * ((c + 2 * s) % 5);
      slots.loads.push_back(spec);
    }
  core::SteadyStateProblem problem(plat, slots, core::Objective::Sum);
  core::SteadyStateProblem::ReducedModel reduced = problem.build_reduced();
  ASSERT_GT(reduced.model.num_constraints(), 112);
  std::vector<double> weights = problem.loads().weights();
  const Model small = make_steady_model(16, 77);

  SimplexOptions hyper;
  SimplexOptions dense = hyper;
  dense.hypersparse = false;
  SolveArena hyper_arena, dense_arena;
  WarmState hyper_state, dense_state;
  int bound_repairs = 0, basis_repairs = 0;
  const auto solve = [&](const std::string& label) {
    const Solution h =
        SimplexSolver(hyper).solve(reduced.model, &hyper_state, &hyper_arena);
    const Solution d =
        SimplexSolver(dense).solve(reduced.model, &dense_state, &dense_arena);
    EXPECT_EQ(h.factorization_used, Factorization::SparseLu) << label;
    expect_same_solve(h, d, label);
    bound_repairs += h.warm_kind == WarmKind::Capsule && h.phase1_iterations > 0;
    basis_repairs += h.warm_kind == WarmKind::Basis;
  };
  const auto reweight = [&] {
    problem.set_load_weights(weights);
    problem.update_reduced_payoffs(reduced);
  };

  solve("cold");
  Rng rng(4243);
  for (int step = 0; step < 8; ++step) {
    const std::string tag = std::to_string(step);
    for (int d = 0; d < 3; ++d) {
      std::size_t j = rng.index(weights.size());
      while (weights[j] == 0.0) j = (j + 1) % weights.size();
      weights[j] = 0.0;
    }
    reweight();
    solve("depart " + tag);
    for (int a = 0; a < 3; ++a) {
      std::size_t j = rng.index(weights.size());
      while (weights[j] != 0.0) j = (j + 1) % weights.size();
      weights[j] = rng.uniform(0.5, 3.0);
    }
    reweight();
    solve("arrive " + tag);
    if (step == 3) {
      // The dense-inverse route leaves the arena's pricing buffers in a
      // state the hypersparse route must not trust.
      const Solution hs = SimplexSolver(hyper).solve(small, nullptr, &hyper_arena);
      const Solution ds = SimplexSolver(dense).solve(small, nullptr, &dense_arena);
      ASSERT_EQ(hs.factorization_used, Factorization::DenseInverse);
      expect_same_solve(hs, ds, "K=16 mid-chain");
    }
    if (step == 5) {
      platform::LinkId li = 0;
      while (plat.num_routes_through(li) == 0) ++li;
      plat.set_link_bandwidth(li, plat.link(li).bw * 0.4);
      problem.update_reduced_capacities(reduced, problem.refresh_route_bandwidths());
      solve("link cut");
    }
  }
  EXPECT_GT(bound_repairs, 0);  // the composite bound phase 1 ran warm
  EXPECT_GT(basis_repairs, 0);  // the re-priced matrix repaired the basis
}

// ---- c_B's support on the hypersparse route --------------------------------
//
// The hypersparse pricing route keeps the rows of nonzero basic cost as
// solver state. In the composite bound phase 1 a charge follows its
// basic value, so two updates keep the support exact besides the
// leaving row's: each row of w's pattern after a step, and a rebuild
// after a mid-phase refactorization recomputes every basic value. The
// phase checks when it ends that every support row still carries a
// charge. The two tests below reach each update; without it the stale
// row trips the check. Both arms run the same capsule chain with hypersparse on and
// off, which must stay bit-identical.

/// Solves `base` cold into a capsule, then `cut` warm from it, under
/// `opt` with the hypersparse toggle on and off.
std::pair<Solution, Solution> warm_pair(const Model& base, const Model& cut,
                                        SimplexOptions base_opt, SimplexOptions opt) {
  Solution out[2];
  for (const bool hyper : {true, false}) {
    base_opt.hypersparse = opt.hypersparse = hyper;
    WarmState state;
    EXPECT_EQ(SimplexSolver(base_opt).solve(base, &state).status, SolveStatus::Optimal);
    out[hyper ? 0 : 1] = SimplexSolver(opt).solve(cut, &state);
  }
  return {out[0], out[1]};
}

TEST(SimplexCbSupport, BoundPhase1StepDropsANonLeavingCharge) {
  // max x1 + x2 with z competing for both rows: the optimum x1 = x2 = 10
  // leaves z nonbasic. Tightened to x1, x2 <= 6, both basics sit 4 over
  // their bounds. z lowers them at the same rate, so the step that lets
  // x1 leave at its bound lands x2 on its bound too: row 1 is in w's
  // pattern, does not leave, and loses its charge.
  Model m;
  m.set_sense(Sense::Maximize);
  const int x1 = m.add_variable(0.0, kInf, 1.0);
  const int x2 = m.add_variable(0.0, kInf, 1.0);
  const int z = m.add_variable(0.0, kInf, 0.0);
  m.add_constraint({{x1, 1.0}, {z, 1.0}}, Relation::LessEqual, 10.0);
  m.add_constraint({{x2, 1.0}, {z, 1.0}}, Relation::LessEqual, 10.0);
  Model cut = m;
  cut.set_bounds(x1, 0.0, 6.0);
  cut.set_bounds(x2, 0.0, 6.0);

  SimplexOptions opt;
  opt.factorization = Factorization::SparseLu;
  const auto [hyper, dense] = warm_pair(m, cut, opt, opt);
  expect_same_solve(hyper, dense, "tie step");
  EXPECT_EQ(hyper.warm_kind, WarmKind::Capsule);
  EXPECT_EQ(hyper.phase1_iterations, 1);  // one step repairs both rows
  EXPECT_EQ(hyper.x, (std::vector<double>{6.0, 6.0, 4.0}));
}

TEST(SimplexCbSupport, MidPhaseRefactorizationMovesACharge) {
  // x1 + x2 = 10 and x1 + (1 + d) x2 = 10 + 3d pin x1 = 7, x2 = 3 through
  // an ill-conditioned block; y + u <= 5 is separate. The capsule keeps
  // its eta file, so a warm restore computes x2 through the etas; a
  // refactorization after every pivot recomputes it through a fresh LU,
  // a few ulps away. Tightening y to 2 starts the composite bound phase
  // 1, whose one pivot (u enters) leaves x2's row alone; the
  // refactorization after it is the only thing that moves x2.
  const double d = 1e-7;
  const double rhs = 10.0 + 3.0 * d;
  Model m;
  m.set_sense(Sense::Maximize);
  const int x1 = m.add_variable(0.0, kInf, 1.0);
  const int x2 = m.add_variable(0.0, kInf, 1.0);
  const int y = m.add_variable(0.0, kInf, 1.0);
  const int u = m.add_variable(0.0, kInf, 0.0);
  m.add_constraint({{x1, 1.0}, {x2, 1.0}}, Relation::Equal, 10.0);
  m.add_constraint({{x1, 1.0}, {x2, 1.0 + d}}, Relation::Equal, rhs);
  m.add_constraint({{y, 1.0}, {u, 1.0}}, Relation::LessEqual, 5.0);
  Model cut = m;
  cut.set_bounds(y, 0.0, 2.0);

  SimplexOptions base_opt;
  base_opt.factorization = Factorization::SparseLu;
  base_opt.capsule_eta_fill = -1.0;  // the capsule carries its etas
  SimplexOptions opt = base_opt;
  opt.refactor_fill = 1e-9;  // refactorize after every pivot

  // Calibration: x2 as restored (the capsule's basic value, which the
  // cold solve reports) and as recomputed (the warm solve ends on the
  // refactorization).
  WarmState state;
  const double restored = SimplexSolver(base_opt).solve(m, &state).x[x2];
  const double recomputed = SimplexSolver(opt).solve(cut, &state).x[x2];
  ASSERT_NE(restored, recomputed) << "the refactorization no longer moves x2";

  // Put x2's violation threshold (bound -/+ 1e-7 * largest rhs) exactly
  // on the recomputed value: the restored value lies beyond it, so x2
  // starts charged and the refactorization clears the charge. The
  // bound keeps the recomputed violation within tolerance, so the
  // repair succeeds.
  const double tol = 1e-7 * rhs;
  const bool above = restored > recomputed;
  double bound = above ? recomputed - tol : recomputed + tol;
  if ((above ? recomputed - bound : bound - recomputed) > tol)
    bound = std::nextafter(bound, recomputed);
  ASSERT_EQ(above ? bound + tol : bound - tol, recomputed);
  if (above) {
    cut.set_bounds(x2, 0.0, bound);
  } else {
    cut.set_bounds(x2, bound, kInf);
  }

  const auto [hyper, dense] = warm_pair(m, cut, base_opt, opt);
  expect_same_solve(hyper, dense, "mid-phase refactorization");
  EXPECT_EQ(hyper.warm_kind, WarmKind::Capsule);
  EXPECT_EQ(hyper.phase1_iterations, 1);
  EXPECT_EQ(hyper.x[x2], bound);  // within tolerance, reported on its bound
  EXPECT_EQ(hyper.x[u], 3.0);
}

}  // namespace
}  // namespace dls::lp
