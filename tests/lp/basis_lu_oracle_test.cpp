// BasisLu::factorize against the reference elimination of
// reference_lu.cpp: over random sparse matrices, tie-heavy and
// threshold-heavy matrices, simplex bases of steady-state models, and
// structurally and numerically singular matrices, both must agree on
// success, and on the pivot sequence, L and U bit for bit in the same
// storage order. Also pins that one FactorScratch reused across shapes
// gives exactly what a fresh one gives, and stops allocating once it
// has seen its largest basis.
#include "lp/basis_lu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "lp/model.hpp"
#include "lp/reference_lu.hpp"
#include "lp/simplex.hpp"
#include "platform/generator.hpp"
#include "support/rng.hpp"

namespace dls::lp::testing {

struct BasisLuAccess {
  static ReferenceFactors factors(const BasisLu& lu) {
    return {lu.pivot_row_, lu.pivot_col_, lu.pivot_val_, lu.l_start_, lu.l_row_,
            lu.l_val_,     lu.u_start_,   lu.u_col_,     lu.u_val_};
  }
  /// Data pointers of every factor vector: unchanged across a
  /// factorize() means it allocated nothing.
  static std::vector<const void*> buffers(const BasisLu& lu) {
    return {lu.pivot_row_.data(), lu.pivot_col_.data(), lu.pivot_val_.data(),
            lu.l_start_.data(),   lu.l_row_.data(),     lu.l_val_.data(),
            lu.u_start_.data(),   lu.u_col_.data(),     lu.u_val_.data(),
            lu.row_to_step_.data(), lu.col_to_step_.data(), lu.ut_start_.data(),
            lu.ut_step_.data(),   lu.lt_start_.data(),  lu.lt_step_.data(),
            lu.eta_start_.data(), lu.work_.data()};
  }
};

namespace {

/// An m x m matrix in the compressed-sparse-column form factorize() reads.
struct Csc {
  int m = 0;
  std::vector<int> ptr{0}, row;
  std::vector<double> val;

  /// Appends a column; `entries` are (row, value) in storage order.
  void add_column(const std::vector<std::pair<int, double>>& entries) {
    for (const auto& [i, v] : entries) {
      row.push_back(i);
      val.push_back(v);
    }
    ptr.push_back(static_cast<int>(row.size()));
  }
};

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::bit_cast<std::uint64_t>(v[i]);
  return out;
}

void expect_same_factors(const ReferenceFactors& got, const ReferenceFactors& want,
                         const std::string& what) {
  EXPECT_EQ(got.pivot_row, want.pivot_row) << what;
  EXPECT_EQ(got.pivot_col, want.pivot_col) << what;
  EXPECT_EQ(bits(got.pivot_val), bits(want.pivot_val)) << what;
  EXPECT_EQ(got.l_start, want.l_start) << what;
  EXPECT_EQ(got.l_row, want.l_row) << what;
  EXPECT_EQ(bits(got.l_val), bits(want.l_val)) << what;
  EXPECT_EQ(got.u_start, want.u_start) << what;
  EXPECT_EQ(got.u_col, want.u_col) << what;
  EXPECT_EQ(bits(got.u_val), bits(want.u_val)) << what;
}

/// Factorizes `a` both ways (the production kernel on the shared
/// `scratch`) and checks they agree. Returns whether it factorized.
bool check_against_reference(const Csc& a, double tol, FactorScratch& scratch,
                             const std::string& what) {
  ReferenceFactors want;
  const bool want_ok = reference_factorize(a.m, a.ptr, a.row, a.val, tol, want);
  BasisLu lu;
  const bool ok = lu.factorize(a.m, a.ptr, a.row, a.val, scratch, tol);
  EXPECT_EQ(ok, want_ok) << what;
  EXPECT_EQ(lu.valid(), ok) << what;
  // A failed factorization stops at the same step with the same partial
  // factors.
  expect_same_factors(BasisLuAccess::factors(lu), want, what);
  return ok;
}

/// Distinct random rows for one column, in random (unsorted) order.
std::vector<int> pick_rows(Rng& rng, int m, int count) {
  std::vector<int> rows;
  while (static_cast<int>(rows.size()) < std::min(count, m)) {
    const int i = static_cast<int>(rng.index(static_cast<std::size_t>(m)));
    if (std::find(rows.begin(), rows.end(), i) == rows.end()) rows.push_back(i);
  }
  return rows;
}

double signed_value(Rng& rng, double lo_exp, double hi_exp) {
  const double mag = std::pow(10.0, rng.uniform(lo_exp, hi_exp));
  return rng.bernoulli(0.5) ? mag : -mag;
}

/// Sparse matrix with a diagonal entry in each column with probability
/// `diag`, random extras whose magnitudes span five decades, and some
/// stored exact zeros (both signs) that factorize() must drop.
Csc random_sparse(Rng& rng, int m, double diag) {
  Csc a;
  a.m = m;
  for (int j = 0; j < m; ++j) {
    std::vector<std::pair<int, double>> col;
    const int extras = static_cast<int>(rng.index(5));
    for (const int i : pick_rows(rng, m, extras + 1)) {
      if (i == j) continue;
      col.emplace_back(i, signed_value(rng, -3.0, 2.0));
    }
    if (rng.bernoulli(diag))
      col.insert(col.begin() + static_cast<std::ptrdiff_t>(rng.index(col.size() + 1)),
                 {j, signed_value(rng, -1.0, 1.0)});
    if (!col.empty() && rng.bernoulli(0.05)) col[0].second = rng.bernoulli(0.5) ? 0.0 : -0.0;
    a.add_column(col);
  }
  return a;
}

/// Every column holds the same number of entries, all of magnitude 1
/// or 2: the window's (count, index) order and the |v| tie rule decide
/// nearly every pivot.
Csc tied_counts(Rng& rng, int m, int per_col) {
  Csc a;
  a.m = m;
  for (int j = 0; j < m; ++j) {
    std::vector<int> rows = pick_rows(rng, m, per_col - 1);
    if (std::find(rows.begin(), rows.end(), j) == rows.end()) rows.push_back(j);
    std::vector<std::pair<int, double>> col;
    for (const int i : rows)
      col.emplace_back(i, (rng.bernoulli(0.5) ? 1.0 : 2.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0));
    a.add_column(col);
  }
  return a;
}

/// Columns of one dominant entry among entries below the 0.1 threshold,
/// and some columns entirely below `tol`: singleton pops that break to
/// the full scan, windows whose first pass finds nothing so the second
/// (absolute-tolerance) pass runs, and threshold-filtered candidates.
Csc threshold_heavy(Rng& rng, int m, double tol) {
  Csc a;
  a.m = m;
  for (int j = 0; j < m; ++j) {
    std::vector<std::pair<int, double>> col;
    const std::vector<int> rows = pick_rows(rng, m, 1 + static_cast<int>(rng.index(4)));
    const bool tiny = rng.bernoulli(0.04);
    for (std::size_t e = 0; e < rows.size(); ++e) {
      double v = e == 0 ? signed_value(rng, 0.0, 1.0) : signed_value(rng, -4.0, -1.2);
      if (tiny) v = tol * rng.uniform(0.01, 0.9);
      col.emplace_back(rows[e], v);
    }
    std::swap(col.front(), col[rng.index(col.size())]);
    a.add_column(col);
  }
  return a;
}

/// Singular by construction: an empty column, a zero row, repeated
/// columns, or a column that is an exact multiple of another.
Csc singular(Rng& rng, int m, int kind) {
  Csc a = random_sparse(rng, m, 1.0);
  Csc out;
  out.m = m;
  const int victim = static_cast<int>(rng.index(static_cast<std::size_t>(m)));
  const int source = (victim + 1 + static_cast<int>(rng.index(static_cast<std::size_t>(m - 1)))) % m;
  const int dead_row = static_cast<int>(rng.index(static_cast<std::size_t>(m)));
  for (int j = 0; j < m; ++j) {
    std::vector<std::pair<int, double>> col;
    const int from = (kind >= 2 && j == victim) ? source : j;
    for (int p = a.ptr[from]; p < a.ptr[from + 1]; ++p) {
      if (kind == 1 && a.row[p] == dead_row) continue;
      col.emplace_back(a.row[p], kind == 3 && j == victim ? 2.0 * a.val[p] : a.val[p]);
    }
    if (kind == 0 && j == victim) col.clear();
    out.add_column(col);
  }
  return out;
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
  for (int c = 0; c < k; c += 2) payoffs[static_cast<std::size_t>(c)] = 1.0 + 0.1 * (c % 5);
  const core::SteadyStateProblem problem(plat, payoffs, core::Objective::Sum);
  return problem.build_reduced().model;
}

/// The basis matrix of `columns` (structural j < n: model column j;
/// n + i: row i's slack), in the solver's internal column form.
Csc basis_matrix(const detail::ColumnCache& cols, const std::vector<int>& columns) {
  Csc a;
  a.m = cols.rows;
  for (const int c : columns) {
    std::vector<std::pair<int, double>> col;
    if (c < cols.cols) {
      for (int p = cols.col_ptr[c]; p < cols.col_ptr[c + 1]; ++p)
        col.emplace_back(cols.col_row[p], cols.col_val[p]);
    } else {
      col.emplace_back(c - cols.cols, 1.0);
    }
    a.add_column(col);
  }
  return a;
}

/// The optimal basis of a steady-state model, followed by `variants`
/// bases a few simplex-like exchanges away from it: each exchange brings
/// in a random nonbasic column and drops the slot where its FTRAN image
/// is largest, so the basis stays nonsingular. Every fifth variant
/// instead swaps one column blindly, which is usually singular.
std::vector<Csc> steady_bases(int k, std::uint64_t seed, int variants) {
  const Model model = make_steady_model(k, seed);
  SimplexOptions opt;
  opt.factorization = Factorization::SparseLu;
  const Solution sol = SimplexSolver(opt).solve(model);
  EXPECT_EQ(sol.status, SolveStatus::Optimal);
  const auto cols = detail::build_column_cache(model);
  const int n = cols->cols, m = cols->rows;
  std::vector<int> basic, nonbasic;
  for (int j = 0; j < n; ++j)
    (sol.basis.variables[static_cast<std::size_t>(j)] == BasisStatus::Basic ? basic : nonbasic)
        .push_back(j);
  for (int i = 0; i < m; ++i)
    (sol.basis.slacks[static_cast<std::size_t>(i)] == BasisStatus::Basic ? basic : nonbasic)
        .push_back(n + i);
  EXPECT_EQ(static_cast<int>(basic.size()), m);
  std::vector<Csc> out{basis_matrix(*cols, basic)};
  Rng rng(seed ^ 0x5eedULL);
  FactorScratch scratch;
  for (int v = 0; v < variants; ++v) {
    std::vector<int> b = basic;
    std::vector<int> pool = nonbasic;
    if (v % 5 == 4) {
      std::swap(b[rng.index(b.size())], pool[rng.index(pool.size())]);
    } else {
      const int exchanges = 1 + static_cast<int>(rng.index(8));
      for (int e = 0; e < exchanges; ++e) {
        const Csc cur = basis_matrix(*cols, b);
        BasisLu lu;
        if (!lu.factorize(m, cur.ptr, cur.row, cur.val, scratch)) break;
        const std::size_t in_at = rng.index(pool.size());
        const Csc entering = basis_matrix(*cols, {pool[in_at]});
        std::vector<double> w(static_cast<std::size_t>(m), 0.0);
        for (std::size_t p = 0; p < entering.row.size(); ++p)
          w[static_cast<std::size_t>(entering.row[p])] = entering.val[p];
        lu.ftran(w);
        std::size_t r = 0;
        for (std::size_t i = 1; i < w.size(); ++i)
          if (std::fabs(w[i]) > std::fabs(w[r])) r = i;
        if (std::fabs(w[r]) < 1e-9) continue;
        std::swap(b[r], pool[in_at]);
      }
    }
    out.push_back(basis_matrix(*cols, b));
  }
  return out;
}

TEST(BasisLuOracle, RandomSparseMatchesReference) {
  Rng rng(20231);
  FactorScratch scratch;
  int ok = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const int m = 1 + static_cast<int>(rng.index(trial < 100 ? 60 : 400));
    ok += check_against_reference(random_sparse(rng, m, 0.9), 1e-12, scratch,
                                  "random trial " + std::to_string(trial));
  }
  EXPECT_GT(ok, 75);   // mostly nonsingular ...
  EXPECT_LT(ok, 150);  // ... but missing diagonals make some singular
}

TEST(BasisLuOracle, TiedColumnCountsMatchReference) {
  Rng rng(777);
  FactorScratch scratch;
  int ok = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int m = 5 + static_cast<int>(rng.index(150));
    const int per_col = 2 + static_cast<int>(rng.index(2));
    ok += check_against_reference(tied_counts(rng, m, per_col), 1e-12, scratch,
                                  "tied trial " + std::to_string(trial));
  }
  EXPECT_GT(ok, 0);
}

TEST(BasisLuOracle, ThresholdAndTolerancePassesMatchReference) {
  Rng rng(4049);
  FactorScratch scratch;
  int ok = 0, failed = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const int m = 3 + static_cast<int>(rng.index(120));
    const double tol = trial % 2 == 0 ? 1e-12 : 1e-3;
    const bool r = check_against_reference(threshold_heavy(rng, m, tol), tol, scratch,
                                           "threshold trial " + std::to_string(trial));
    ok += r;
    failed += !r;
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(failed, 0);
}

TEST(BasisLuOracle, SingularMatricesFailAtTheSameStep) {
  Rng rng(31337);
  FactorScratch scratch;
  int structural = 0, numerical = 0;
  for (int trial = 0; trial < 48; ++trial) {
    const int m = 2 + static_cast<int>(rng.index(80));
    const int kind = trial % 4;
    const bool ok = check_against_reference(singular(rng, m, kind), 1e-12, scratch,
                                            "singular trial " + std::to_string(trial));
    (kind < 2 ? structural : numerical) += !ok;
  }
  EXPECT_EQ(structural, 24);
  // Repeated columns cancel only up to rounding, which may leave a
  // residue above the tolerance; most still fail.
  EXPECT_GT(numerical, 12);
}

TEST(BasisLuOracle, SteadyStateBasesMatchReference) {
  FactorScratch scratch;
  int total = 0, ok = 0;
  for (const int k : {8, 16, 24, 32}) {
    const std::vector<Csc> bases = steady_bases(k, 900 + static_cast<std::uint64_t>(k), 20);
    for (std::size_t b = 0; b < bases.size(); ++b) {
      const bool r = check_against_reference(
          bases[b], 1e-12, scratch, "K=" + std::to_string(k) + " basis " + std::to_string(b));
      if (b == 0) {
        EXPECT_TRUE(r) << "K=" << k << ": the optimal basis factorizes";
      }
      ok += r;
      ++total;
    }
  }
  EXPECT_EQ(total, 84);
  EXPECT_GT(ok, total / 2);
  EXPECT_LT(ok, total);  // the blind swaps include singular bases
}

// ---- one scratch across shapes ----------------------------------------------

/// A factorization's observable results: its factors, plus dense and
/// hypersparse FTRAN/BTRAN images of fixed right-hand sides.
struct LuResults {
  bool ok = false;
  ReferenceFactors factors;
  std::vector<std::uint64_t> ftran, btran, ftran_sparse;
};

LuResults factorize_and_solve(BasisLu& lu, FactorScratch& scratch, const Csc& a) {
  LuResults r;
  r.ok = lu.factorize(a.m, a.ptr, a.row, a.val, scratch);
  r.factors = BasisLuAccess::factors(lu);
  if (!r.ok) return r;
  std::vector<double> x(static_cast<std::size_t>(a.m)), y(x.size());
  for (int i = 0; i < a.m; ++i) {
    x[static_cast<std::size_t>(i)] = 1.0 + 0.25 * (i % 7);
    y[static_cast<std::size_t>(i)] = i % 3 == 0 ? -0.5 * i : 0.0;
  }
  lu.ftran(x);
  lu.btran(y);
  r.ftran = bits(x);
  r.btran = bits(y);
  SparseVector s;
  s.reset(a.m);
  for (int i = 0; i < a.m; i += 11) {
    s.values[static_cast<std::size_t>(i)] = 1.0 + i;
    s.pattern.push_back(i);
  }
  SolveScratch ws;
  lu.ftran_sparse(s, ws, 0.5);
  r.ftran_sparse = bits(s.values);
  return r;
}

void expect_same_results(const LuResults& got, const LuResults& want,
                         const std::string& what) {
  EXPECT_EQ(got.ok, want.ok) << what;
  expect_same_factors(got.factors, want.factors, what);
  EXPECT_EQ(got.ftran, want.ftran) << what;
  EXPECT_EQ(got.btran, want.btran) << what;
  EXPECT_EQ(got.ftran_sparse, want.ftran_sparse) << what;
}

TEST(FactorScratch, ReuseAcrossShapesMatchesFreshScratch) {
  Rng rng(600);
  const Csc big = random_sparse(rng, 600, 1.0);
  const Csc small = random_sparse(rng, 40, 1.0);
  const Csc dead = singular(rng, 300, 0);
  struct Step {
    const Csc* a;
    bool expect_ok;
  };
  const Step steps[] = {{&big, true}, {&small, true}, {&dead, false}, {&big, true}};
  BasisLu reused_lu;
  FactorScratch reused;
  for (std::size_t s = 0; s < std::size(steps); ++s) {
    const std::string what = "step " + std::to_string(s);
    const LuResults got = factorize_and_solve(reused_lu, reused, *steps[s].a);
    BasisLu fresh_lu;
    FactorScratch fresh;
    const LuResults want = factorize_and_solve(fresh_lu, fresh, *steps[s].a);
    EXPECT_EQ(got.ok, steps[s].expect_ok) << what;
    expect_same_results(got, want, what);
  }
}

TEST(FactorScratch, RefactorizingAfterTheLargestBasisAllocatesNothing) {
  const std::vector<Csc> bases = steady_bases(32, 932, 6);
  std::vector<const Csc*> ok;
  {
    FactorScratch probe;
    BasisLu lu;
    for (const Csc& a : bases)
      if (lu.factorize(a.m, a.ptr, a.row, a.val, probe)) ok.push_back(&a);
  }
  ASSERT_GE(ok.size(), 3u);
  FactorScratch scratch;
  BasisLu lu;
  // Warm the capacities on every basis once, then refactorize them all
  // again: no buffer of the scratch or of the factors may move.
  for (const Csc* a : ok) ASSERT_TRUE(lu.factorize(a->m, a->ptr, a->row, a->val, scratch));
  for (const Csc* a : ok) ASSERT_TRUE(lu.factorize(a->m, a->ptr, a->row, a->val, scratch));
  const auto scratch_buffers = [&] {
    return std::vector<const void*>{
        scratch.col_start.data(), scratch.col_len.data(), scratch.col_cap.data(),
        scratch.col_row.data(),   scratch.col_val.data(), scratch.row_start.data(),
        scratch.row_len.data(),   scratch.row_cap.data(), scratch.row_col.data(),
        scratch.row_count.data(), scratch.col_done.data(), scratch.active.data(),
        scratch.singletons.data(), scratch.l_pos.data(),  scratch.l_hit.data()};
  };
  const auto before = scratch_buffers();
  const auto lu_before = BasisLuAccess::buffers(lu);
  for (const Csc* a : ok) {
    ASSERT_TRUE(lu.factorize(a->m, a->ptr, a->row, a->val, scratch));
    EXPECT_EQ(scratch_buffers(), before);
    EXPECT_EQ(BasisLuAccess::buffers(lu), lu_before);
  }
}

TEST(FactorScratch, ArenaReuseAcrossModelSizesIsBitIdentical) {
  // The solver arena owns the scratch: solving a large, a small and the
  // large model again through one arena must equal fresh arenas.
  SimplexOptions opt;
  opt.factorization = Factorization::SparseLu;
  const SimplexSolver solver(opt);
  const Model large = make_steady_model(32, 1);
  const Model small = make_steady_model(8, 2);
  SolveArena arena;
  for (const Model* model : {&large, &small, &large}) {
    const Solution reused = solver.solve(*model, nullptr, &arena);
    const Solution fresh = solver.solve(*model);
    ASSERT_EQ(reused.status, SolveStatus::Optimal);
    EXPECT_EQ(reused.iterations, fresh.iterations);
    EXPECT_EQ(reused.refactorizations, fresh.refactorizations);
    EXPECT_EQ(bits(reused.x), bits(fresh.x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reused.objective),
              std::bit_cast<std::uint64_t>(fresh.objective));
  }
}

}  // namespace
}  // namespace dls::lp::testing
