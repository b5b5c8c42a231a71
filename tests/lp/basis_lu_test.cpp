// Unit tests for the sparse Markowitz LU basis factorization: solve
// correctness against a dense reference, eta-update equivalence with
// refactorization, singularity detection, and the nnz (not m^2) memory
// claim the warm-start capsule relies on.
#include "lp/basis_lu.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace dls::lp {
namespace {

/// Dense column-major matrix with CSC extraction, plus naive O(m^3)
/// Gaussian-elimination solves as the reference oracle.
struct DenseMatrix {
  int m = 0;
  std::vector<double> a;  // column-major

  explicit DenseMatrix(int dim) : m(dim), a(static_cast<std::size_t>(dim) * dim, 0.0) {}
  double& at(int i, int j) { return a[static_cast<std::size_t>(j) * m + i]; }
  double at(int i, int j) const { return a[static_cast<std::size_t>(j) * m + i]; }

  void to_csc(std::vector<int>& col_ptr, std::vector<int>& rows,
              std::vector<double>& vals) const {
    col_ptr.assign(m + 1, 0);
    rows.clear();
    vals.clear();
    for (int j = 0; j < m; ++j) {
      for (int i = 0; i < m; ++i) {
        if (at(i, j) == 0.0) continue;
        rows.push_back(i);
        vals.push_back(at(i, j));
      }
      col_ptr[j + 1] = static_cast<int>(rows.size());
    }
  }

  /// Solves (transpose ? A' : A) x = b by elimination with partial
  /// pivoting. Returns false on a (near-)singular matrix.
  bool solve(std::vector<double> b, std::vector<double>& x, bool transpose) const {
    std::vector<double> mat(static_cast<std::size_t>(m) * m);
    for (int j = 0; j < m; ++j)
      for (int i = 0; i < m; ++i)
        mat[static_cast<std::size_t>(j) * m + i] = transpose ? at(j, i) : at(i, j);
    std::vector<int> perm(m);
    for (int i = 0; i < m; ++i) perm[i] = i;
    for (int col = 0; col < m; ++col) {
      int piv = col;
      for (int i = col + 1; i < m; ++i)
        if (std::fabs(mat[static_cast<std::size_t>(col) * m + i]) >
            std::fabs(mat[static_cast<std::size_t>(col) * m + piv]))
          piv = i;
      if (std::fabs(mat[static_cast<std::size_t>(col) * m + piv]) < 1e-12) return false;
      if (piv != col) {
        for (int j = 0; j < m; ++j)
          std::swap(mat[static_cast<std::size_t>(j) * m + piv],
                    mat[static_cast<std::size_t>(j) * m + col]);
        std::swap(b[piv], b[col]);
      }
      for (int i = col + 1; i < m; ++i) {
        const double f = mat[static_cast<std::size_t>(col) * m + i] /
                         mat[static_cast<std::size_t>(col) * m + col];
        if (f == 0.0) continue;
        for (int j = col; j < m; ++j)
          mat[static_cast<std::size_t>(j) * m + i] -=
              f * mat[static_cast<std::size_t>(j) * m + col];
        b[i] -= f * b[col];
      }
    }
    x.assign(m, 0.0);
    for (int i = m - 1; i >= 0; --i) {
      double v = b[i];
      for (int j = i + 1; j < m; ++j) v -= mat[static_cast<std::size_t>(j) * m + i] * x[j];
      x[i] = v / mat[static_cast<std::size_t>(i) * m + i];
    }
    return true;
  }
};

/// Random sparse nonsingular matrix shaped like our bases: mostly
/// singleton/doubleton columns over a nonzero diagonal.
DenseMatrix random_basis(Rng& rng, int m) {
  DenseMatrix d(m);
  for (int j = 0; j < m; ++j) {
    d.at(j, j) = rng.uniform(0.5, 3.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
    const int extras = rng.bernoulli(0.6) ? static_cast<int>(rng.index(3)) : 0;
    for (int e = 0; e < extras; ++e) {
      const int i = static_cast<int>(rng.index(m));
      if (i != j) d.at(i, j) = rng.uniform(-2.0, 2.0);
    }
  }
  return d;
}

bool factorize(BasisLu& lu, const DenseMatrix& d) {
  std::vector<int> col_ptr, rows;
  std::vector<double> vals;
  d.to_csc(col_ptr, rows, vals);
  FactorScratch scratch;
  return lu.factorize(d.m, col_ptr, rows, vals, scratch);
}

TEST(BasisLu, FtranBtranMatchDenseReference) {
  Rng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    const int m = 2 + static_cast<int>(rng.index(40));
    const DenseMatrix d = random_basis(rng, m);
    BasisLu lu;
    ASSERT_TRUE(factorize(lu, d)) << "trial " << trial;
    EXPECT_EQ(lu.dimension(), m);

    std::vector<double> b(m), ref;
    for (double& v : b) v = rng.uniform(-5.0, 5.0);
    ASSERT_TRUE(d.solve(b, ref, /*transpose=*/false));
    std::vector<double> x = b;
    lu.ftran(x);
    for (int i = 0; i < m; ++i)
      EXPECT_NEAR(x[i], ref[i], 1e-8) << "ftran trial " << trial << " i=" << i;

    std::vector<double> c(m), tref;
    for (double& v : c) v = rng.uniform(-5.0, 5.0);
    ASSERT_TRUE(d.solve(c, tref, /*transpose=*/true));
    std::vector<double> y = c;
    lu.btran(y);
    for (int i = 0; i < m; ++i)
      EXPECT_NEAR(y[i], tref[i], 1e-8) << "btran trial " << trial << " i=" << i;
  }
}

TEST(BasisLu, EtaUpdatesMatchRefactorization) {
  // Replace basis columns one at a time; after each product-form update
  // the solves must agree with a from-scratch factorization of the
  // updated matrix.
  Rng rng(202);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = 4 + static_cast<int>(rng.index(20));
    DenseMatrix d = random_basis(rng, m);
    BasisLu lu;
    ASSERT_TRUE(factorize(lu, d));

    for (int step = 0; step < 6; ++step) {
      // New column: sparse with a solid entry on the replaced slot's row
      // region so the updated basis stays comfortably nonsingular.
      const int r = static_cast<int>(rng.index(m));
      std::vector<double> col(m, 0.0);
      col[r] = rng.uniform(1.0, 3.0);
      const int extra = static_cast<int>(rng.index(m));
      if (extra != r && rng.bernoulli(0.7)) col[extra] = rng.uniform(-1.0, 1.0);

      // FTRAN the entering column, then eta-update slot r with it.
      std::vector<double> w = col;
      lu.ftran(w);
      if (std::fabs(w[r]) <= 1e-9) continue;  // would pivot on noise; skip
      ASSERT_TRUE(lu.update(r, w, 1e-9));
      for (int i = 0; i < m; ++i) d.at(i, r) = col[i];

      std::vector<double> b(m), ref;
      for (double& v : b) v = rng.uniform(-3.0, 3.0);
      ASSERT_TRUE(d.solve(b, ref, /*transpose=*/false));
      std::vector<double> x = b;
      lu.ftran(x);
      for (int i = 0; i < m; ++i)
        EXPECT_NEAR(x[i], ref[i], 1e-6)
            << "trial " << trial << " step " << step << " i=" << i;

      std::vector<double> c(m), tref;
      for (double& v : c) v = rng.uniform(-3.0, 3.0);
      ASSERT_TRUE(d.solve(c, tref, /*transpose=*/true));
      std::vector<double> y = c;
      lu.btran(y);
      for (int i = 0; i < m; ++i)
        EXPECT_NEAR(y[i], tref[i], 1e-6)
            << "trial " << trial << " step " << step << " i=" << i;
    }
    EXPECT_GT(lu.eta_count(), 0);
  }
}

TEST(BasisLu, RejectsSingularMatrices) {
  // Structurally singular: an empty column.
  {
    DenseMatrix d(4);
    d.at(0, 0) = 1.0;
    d.at(1, 1) = 1.0;
    d.at(2, 2) = 1.0;  // column 3 empty
    BasisLu lu;
    EXPECT_FALSE(factorize(lu, d));
    EXPECT_FALSE(lu.valid());
  }
  // Numerically singular: two identical columns.
  {
    DenseMatrix d(3);
    d.at(0, 0) = 1.0;
    d.at(1, 0) = 2.0;
    d.at(0, 1) = 1.0;
    d.at(1, 1) = 2.0;
    d.at(2, 2) = 1.0;
    BasisLu lu;
    EXPECT_FALSE(factorize(lu, d));
  }
}

TEST(BasisLu, UpdateRejectsTinyPivots) {
  DenseMatrix d(3);
  for (int i = 0; i < 3; ++i) d.at(i, i) = 1.0;
  BasisLu lu;
  ASSERT_TRUE(factorize(lu, d));
  std::vector<double> w = {1.0, 1e-12, 0.0};
  EXPECT_FALSE(lu.update(1, w, 1e-9));  // |w[1]| below pivot tolerance
  EXPECT_EQ(lu.eta_count(), 0);         // rejected update left no eta
  EXPECT_TRUE(lu.update(0, w, 1e-9));
  EXPECT_EQ(lu.eta_count(), 1);
}

/// Builds a sparse right-hand side with ~nnz random entries that
/// satisfies the SparseVector invariant.
SparseVector random_rhs(Rng& rng, int m, int nnz) {
  SparseVector v;
  v.reset(m);
  for (int k = 0; k < nnz; ++k) {
    const int i = static_cast<int>(rng.index(m));
    if (v.values[i] != 0.0) continue;
    double val = rng.uniform(-4.0, 4.0);
    if (val == 0.0) val = 1.0;
    v.values[i] = val;
    v.pattern.push_back(i);
  }
  return v;
}

/// The hypersparse contract against a dense oracle result: every
/// nonzero bitwise identical, every off-pattern slot an exact +0.0,
/// and the pattern exactly the ascending nonzero support.
void expect_hypersparse_matches(const SparseVector& s,
                                const std::vector<double>& dense,
                                const char* what, int trial) {
  const int m = static_cast<int>(dense.size());
  std::vector<int> expected;
  for (int i = 0; i < m; ++i) {
    if (dense[i] != 0.0) {
      expected.push_back(i);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s.values[i]),
                std::bit_cast<std::uint64_t>(dense[i]))
          << what << " trial " << trial << " i=" << i;
    } else {
      EXPECT_EQ(s.values[i], 0.0) << what << " trial " << trial << " i=" << i;
      EXPECT_FALSE(std::signbit(s.values[i]))
          << what << " trial " << trial << " i=" << i;
    }
  }
  EXPECT_EQ(s.pattern, expected) << what << " trial " << trial;
}

TEST(BasisLu, HypersparseSolvesMatchDenseBitwise) {
  // Fuzz the reach-set FTRAN/BTRAN against the dense sweeps they must
  // reproduce exactly: random bases, long eta chains (including pivots
  // barely above the tolerance), random sparse right-hand sides.
  Rng rng(404);
  for (int trial = 0; trial < 60; ++trial) {
    const int m = 3 + static_cast<int>(rng.index(50));
    DenseMatrix d = random_basis(rng, m);
    BasisLu lu;
    ASSERT_TRUE(factorize(lu, d)) << "trial " << trial;

    // Grow an eta chain; a few updates use a deliberately tiny (but
    // accepted) pivot to exercise near-singular eta arithmetic.
    const int chain = static_cast<int>(rng.index(12));
    for (int step = 0; step < chain; ++step) {
      const int r = static_cast<int>(rng.index(m));
      std::vector<double> col(m, 0.0);
      col[r] = rng.bernoulli(0.15) ? 5e-7 : rng.uniform(1.0, 3.0);
      const int extra = static_cast<int>(rng.index(m));
      if (extra != r && rng.bernoulli(0.7)) col[extra] = rng.uniform(-1.0, 1.0);
      std::vector<double> w = col;
      lu.ftran(w);
      if (std::fabs(w[r]) <= 1e-9) continue;
      ASSERT_TRUE(lu.update(r, w, 1e-9));
    }

    SolveScratch ws;
    ws.ensure(m);
    const int nnz = 1 + static_cast<int>(rng.index(4));

    // FTRAN: hypersparse (never falling back) against the dense pass.
    {
      SparseVector x = random_rhs(rng, m, nnz);
      std::vector<double> dense = x.values;
      lu.ftran(dense);
      const BasisLu::SolveStats st = lu.ftran_sparse(x, ws, 1.0);
      EXPECT_FALSE(st.fallback) << "trial " << trial;
      EXPECT_GT(st.reach, 0) << "trial " << trial;
      expect_hypersparse_matches(x, dense, "ftran", trial);
    }
    // BTRAN, same contract.
    {
      SparseVector y = random_rhs(rng, m, nnz);
      std::vector<double> dense = y.values;
      lu.btran(dense);
      const BasisLu::SolveStats st = lu.btran_sparse(y, ws, 1.0);
      EXPECT_FALSE(st.fallback) << "trial " << trial;
      expect_hypersparse_matches(y, dense, "btran", trial);
    }
    // Unit BTRAN against the legacy scan-collected row of B^{-1}.
    {
      const int slot = static_cast<int>(rng.index(m));
      std::vector<double> ref;
      lu.btran_unit(slot, ref);
      SparseVector y;
      y.reset(m);
      const BasisLu::SolveStats st = lu.btran_unit_sparse(slot, y, ws, 1.0);
      EXPECT_FALSE(st.fallback) << "trial " << trial;
      expect_hypersparse_matches(y, ref, "btran_unit", trial);
    }
  }
}

TEST(BasisLu, CrossoverZeroForcesDenseFallback) {
  // crossover = 0.0 makes the density limit (int)(0.0 * m) = 0, so the
  // very first symbolic step crosses it: every solve must report a
  // fallback and still return the exact dense result and pattern.
  Rng rng(505);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = 3 + static_cast<int>(rng.index(30));
    const DenseMatrix d = random_basis(rng, m);
    BasisLu lu;
    ASSERT_TRUE(factorize(lu, d));
    SolveScratch ws;
    ws.ensure(m);

    SparseVector x = random_rhs(rng, m, 2);
    std::vector<double> dense = x.values;
    lu.ftran(dense);
    const BasisLu::SolveStats fst = lu.ftran_sparse(x, ws, 0.0);
    EXPECT_TRUE(fst.fallback) << "trial " << trial;
    expect_hypersparse_matches(x, dense, "ftran fallback", trial);

    SparseVector y = random_rhs(rng, m, 2);
    std::vector<double> bdense = y.values;
    lu.btran(bdense);
    const BasisLu::SolveStats bst = lu.btran_sparse(y, ws, 0.0);
    EXPECT_TRUE(bst.fallback) << "trial " << trial;
    expect_hypersparse_matches(y, bdense, "btran fallback", trial);

    const int slot = static_cast<int>(rng.index(m));
    std::vector<double> ref;
    lu.btran_unit(slot, ref);
    SparseVector u;
    u.reset(m);
    const BasisLu::SolveStats ust = lu.btran_unit_sparse(slot, u, ws, 0.0);
    EXPECT_TRUE(ust.fallback) << "trial " << trial;
    expect_hypersparse_matches(u, ref, "btran_unit fallback", trial);
  }
}

TEST(BasisLu, MemoryScalesWithNnzNotDimensionSquared) {
  // A banded basis of bandwidth ~3: nnz is O(m), so the factorization
  // must stay far below the 8*m^2 bytes a dense inverse would need.
  const int m = 400;
  DenseMatrix d(m);
  Rng rng(303);
  for (int j = 0; j < m; ++j) {
    d.at(j, j) = rng.uniform(1.0, 2.0);
    if (j + 1 < m) d.at(j + 1, j) = rng.uniform(-0.5, 0.5);
    if (j >= 1) d.at(j - 1, j) = rng.uniform(-0.5, 0.5);
  }
  BasisLu lu;
  ASSERT_TRUE(factorize(lu, d));
  const std::size_t dense_bytes = static_cast<std::size_t>(m) * m * sizeof(double);
  EXPECT_LT(lu.memory_bytes(), dense_bytes / 10);
}

}  // namespace
}  // namespace dls::lp
