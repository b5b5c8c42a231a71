// Sparse LU factorization of a simplex basis with product-form updates.
//
// The basis matrices this repo produces are extremely sparse: a slack
// column is a singleton and an alpha column touches two gateway rows,
// one compute row and the links of one route. BasisLu factorizes such a
// matrix as P B Q = L U by right-looking Gaussian elimination with
// Markowitz pivoting (minimize (r_i - 1)(c_j - 1) fill estimate among
// entries passing a relative stability threshold within their column),
// then answers the two solves the revised simplex needs:
//
//   ftran:  B x = b   (entering-column transform, basic-value recompute)
//   btran:  B' y = c  (pricing multipliers, dual extraction)
//
// Between refactorizations, pivots are absorbed by an eta file: when
// basis slot r is replaced by a column whose FTRAN image is w, the new
// basis is B E with E = I except column r = w, so one sparse eta vector
// per pivot extends both solves in O(nnz(w)). The owning solver bounds
// the eta stack with its refactorization policy (comparing eta_nnz()
// against base_nnz(), plus a pivot-count backstop).
//
// Index spaces: ftran maps a right-hand side over *rows* to a solution
// over *basis slots* (columns); btran maps a cost vector over basis
// slots to multipliers over rows. Eta vectors live in slot space.
// Hypersparse solves: when the right-hand side is sparse (an entering
// column, a unit vector, an update spike), the dense O(m) sweeps above
// are replaced by a Gilbert–Peierls-style two-phase solve — a symbolic
// flood fill over the factor dependency graphs computes the reach set
// of pivot steps the solution can touch, then a numeric scatter/gather
// pass runs only those steps, in the same order and with the same
// skip-zero guards as the dense loops, so every nonzero of the result
// is bitwise identical to the dense pass. A symbolic pass whose reach
// crosses `crossover * m` abandons the sparse route and finishes with
// the dense sweeps (the predicted bookkeeping would cost more than the
// straight pass it replaces). The graphs (pivot permutation inverses
// plus L/U transposes) are built once per factorize() in O(nnz).
//
// Factorization scratch: the active submatrix and the pivot search
// state live in a FactorScratch the caller passes to factorize(), not
// in BasisLu. The solver arena owns one beside its SolveScratch, so a
// BasisLu moving into a warm-start capsule carries no scratch and a
// reused arena refactorizes without allocating once its pools have
// grown to the largest basis seen. Columns are pooled slices (start,
// length, capacity) of one row/value pool; a full column moves to the
// pool's end with doubled capacity. Per elimination step the cost is:
// a singleton pop in O(1); otherwise a sweep of the still-active
// columns (a list compacted as it is swept) to pick the kCandidateCols
// sparsest; then O(nnz) of the pivot column, of each column in the
// pivot row, and of the fill they take — the Schur update finds an
// existing entry through a row -> L-position marker, not by searching
// the column.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "lp/sparse_vector.hpp"

namespace dls::lp {

namespace testing {
struct BasisLuAccess;  // reads the factors for the reference-oracle tests
}  // namespace testing

/// Reusable scratch of BasisLu::factorize(): the active submatrix in
/// pooled column slices plus row pattern lists, and the pivot search
/// state. Only capacity survives between calls — factorize()
/// reinitializes everything it reads — so one instance serves any
/// number of BasisLu objects sequentially, and the factors never depend
/// on what it factorized before.
struct FactorScratch {
  // Column j of the active submatrix: col_row/col_val[col_start[j] ..
  // col_start[j] + col_len[j]), room for col_cap[j] entries. col_len is
  // the exact active count; pool entries past col_end are free.
  std::vector<int> col_start, col_len, col_cap;
  std::vector<int> col_row;
  std::vector<double> col_val;
  int col_end = 0;
  // Row i's pattern: the columns that held an entry in row i, in the
  // order they got it (a superset: finished columns are skipped on use).
  // row_count[i] is the exact number of active entries in row i.
  std::vector<int> row_start, row_len, row_cap;
  std::vector<int> row_col;
  int row_end = 0;
  std::vector<int> row_count;
  std::vector<char> col_done;
  std::vector<int> active;      ///< unfinished columns, ascending; compacted lazily
  std::vector<int> singletons;  ///< LIFO stack of count-1 columns, validated on pop
  std::vector<int> l_pos;       ///< row -> position in the step's L column, else -1
  std::vector<char> l_hit;      ///< per L position: entry found in the current column
};

class BasisLu {
public:
  /// Outcome of one hypersparse solve.
  struct SolveStats {
    int reach = 0;          ///< steps touched by the widest triangular pass
    bool fallback = false;  ///< reach crossed the density cutoff; dense pass ran
  };

  /// Factorizes the m x m basis given in compressed-sparse-column form
  /// (column j's entries are rows[col_ptr[j]..col_ptr[j+1]), no row
  /// repeated within a column). Discards any previous factorization and
  /// eta file. `scratch` holds the elimination's working storage.
  /// Returns false — leaving the object invalid — when the matrix is
  /// numerically singular (no remaining pivot reaches `abs_pivot_tol`).
  bool factorize(int m, std::span<const int> col_ptr, std::span<const int> rows,
                 std::span<const double> values, FactorScratch& scratch,
                 double abs_pivot_tol = 1e-12);

  /// True once factorize() has succeeded (updates keep it true).
  [[nodiscard]] bool valid() const { return m_ > 0; }
  /// Dimension of the factorized basis; 0 when invalid.
  [[nodiscard]] int dimension() const { return m_; }

  /// Solves B x = b in place: `x` holds b over rows on entry and the
  /// solution over basis slots on return.
  void ftran(std::vector<double>& x) const;

  /// Solves B' y = c in place: `y` holds c over basis slots on entry and
  /// the solution over rows on return.
  void btran(std::vector<double>& y) const;

  /// Hypersparse FTRAN. `x` must satisfy the SparseVector invariant on
  /// entry (rhs values on its pattern, exact zeros elsewhere); on return
  /// it holds the solution with its pattern rewritten to the exact
  /// nonzero support, sorted ascending (entries that cancelled exactly
  /// are reset to +0.0). Falls back to the dense passes — and an O(m)
  /// pattern rescan — when the symbolic reach exceeds `crossover * m`.
  /// Nonzero values are bitwise identical to ftran() either way.
  SolveStats ftran_sparse(SparseVector& x, SolveScratch& ws,
                          double crossover) const;

  /// Hypersparse BTRAN; same contract as ftran_sparse.
  SolveStats btran_sparse(SparseVector& y, SolveScratch& ws,
                          double crossover) const;

  /// Hypersparse btran of the slot-space unit vector e_slot: row `slot`
  /// of B^{-1} with its nonzero pattern collected by the solve itself
  /// (no post-scan). `y` is cleared via its own pattern, so callers just
  /// keep handing the same SparseVector back.
  SolveStats btran_unit_sparse(int slot, SparseVector& y, SolveScratch& ws,
                               double crossover) const;

  /// Product-form update after a simplex pivot: slot `r` of the basis is
  /// replaced by a column whose FTRAN image is `w` (dense, slot space).
  /// Returns false without changing anything when |w[r]| <= pivot_tol —
  /// the caller should refactorize from the updated basis instead.
  bool update(int r, const std::vector<double>& w, double pivot_tol);

  /// Pattern-driven form of update(): reads only `w.pattern` (ascending,
  /// exact nonzeros — what ftran_sparse returns), appending the same eta
  /// vector the dense scan would.
  bool update(int r, const SparseVector& w, double pivot_tol);

  /// btran of a slot-space unit vector e_slot: `y` is resized and
  /// overwritten with row `slot` of B^{-1} (over rows). When `nonzeros`
  /// is non-null it receives the indices of y's nonzero entries — the
  /// support the simplex pricing update scatters its pivot row from.
  /// (Legacy dense pass; the pivot loop uses btran_unit_sparse.)
  void btran_unit(int slot, std::vector<double>& y,
                  std::vector<int>* nonzeros = nullptr) const;

  /// Number of eta vectors appended since the last factorize().
  [[nodiscard]] int eta_count() const { return static_cast<int>(eta_pivot_pos_.size()); }
  /// Nonzeros of the base factorization alone (L + U + pivots).
  [[nodiscard]] std::size_t base_nnz() const {
    return l_row_.size() + u_col_.size() + pivot_row_.size();
  }
  /// Nonzeros accumulated in the eta file since the last factorize();
  /// what the owning solver's fill-based refactorization trigger and
  /// capsule compression compare against base_nnz().
  [[nodiscard]] std::size_t eta_nnz() const {
    return eta_pos_.size() + eta_pivot_pos_.size();
  }
  /// Nonzeros held: L + U + pivots + eta file.
  [[nodiscard]] std::size_t factor_nnz() const;
  /// Heap bytes of the factorization (what a warm-start capsule carries;
  /// scales with nnz, not with dimension squared).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Returns to the invalid (never-factorized) state and frees storage.
  void clear();

private:
  friend struct testing::BasisLuAccess;

  // Dense pass stages (bit-exact splits of ftran()/btran(); the
  // hypersparse solves re-enter them mid-solve on a crossover fallback).
  void ftran_l_dense(std::vector<double>& x) const;
  void ftran_u_dense(std::vector<double>& x) const;
  void ftran_eta_dense(std::vector<double>& x) const;
  void btran_eta_dense(std::vector<double>& y) const;
  void btran_ul_dense(std::vector<double>& y) const;

  /// O(m) fallback pattern collection: exact nonzeros ascending, with
  /// negative zeros (structural zeros of the dense passes) normalized
  /// so the SparseVector invariant holds.
  void rebuild_pattern(std::vector<double>& v, std::vector<int>& pattern) const;

  /// Builds the reach-set graphs (permutation inverses + L/U transposes)
  /// from the freshly factorized L/U. O(nnz).
  void build_solve_graphs();

  int m_ = 0;

  // Pivot sequence t = 0..m-1: row, basis slot (column), pivot value.
  std::vector<int> pivot_row_;
  std::vector<int> pivot_col_;
  std::vector<double> pivot_val_;

  // L: per pivot, the elimination multipliers (row index, value), unit
  // diagonal implicit. Applied in pivot order during ftran.
  std::vector<int> l_start_;  // size m+1
  std::vector<int> l_row_;
  std::vector<double> l_val_;

  // U: per pivot, the eliminated row's surviving entries keyed by the
  // basis slot that will be pivoted later. Back-substituted in reverse
  // pivot order.
  std::vector<int> u_start_;  // size m+1
  std::vector<int> u_col_;
  std::vector<double> u_val_;

  // Reach-set graphs, rebuilt by factorize(). row_to_step_/col_to_step_
  // invert the pivot permutations; ut_*/lt_* are the U rows transposed
  // by basis slot and the L columns transposed by row — the reverse
  // dependency adjacencies the backward symbolic passes walk.
  std::vector<int> row_to_step_;  // pivot row -> elimination step
  std::vector<int> col_to_step_;  // basis slot -> elimination step
  std::vector<int> ut_start_;     // size m+1, indexed by slot
  std::vector<int> ut_step_;
  std::vector<int> lt_start_;     // size m+1, indexed by row
  std::vector<int> lt_step_;

  // Eta file: per update, the pivot slot, w[r], and the other nonzeros.
  std::vector<int> eta_start_;  // size eta_count+1
  std::vector<int> eta_pos_;
  std::vector<double> eta_val_;
  std::vector<int> eta_pivot_pos_;
  std::vector<double> eta_pivot_val_;

  mutable std::vector<double> work_;  ///< solve scratch (single-threaded use)
};

}  // namespace dls::lp
