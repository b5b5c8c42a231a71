// Bounded-variable primal revised simplex.
//
// Design (following standard texts, e.g. Chvátal and Maros):
//   * computational form: minimize c'x subject to Ax + s = b, where one
//     logical (slack) variable s_i per row carries the row relation in its
//     bounds (<=: [0,inf), >=: (-inf,0], =: [0,0]);
//   * nonbasic variables sit at a finite bound (or at 0 if free); basic
//     values are x_B = B^{-1}(b - N x_N);
//   * the basis is kept factorized. The default representation is a
//     sparse Markowitz LU with product-form (eta) updates per pivot
//     (lp/basis_lu.hpp), answering the FTRAN/BTRAN solves in O(nnz);
//     the original dense explicit inverse — elementary row updates,
//     Gauss-Jordan rebuilds — survives as Factorization::DenseInverse,
//     the measured baseline of bench/lp_scaling.cpp, and is auto-selected
//     for small bases (at most 112 rows) where its cache behavior wins;
//   * the sparse factorization is rebuilt when the eta file's accumulated
//     fill exceeds a multiple of the base LU's nonzeros (plus a pivot
//     cap against numerical drift), instead of on a fixed pivot count;
//   * feasibility is restored in phase 1 by per-row artificial columns
//     (+/- e_i) minimized to zero, after which their bounds collapse to
//     [0,0] and phase 2 optimizes the true objective;
//   * pricing is pluggable (SimplexOptions::pricing). Dantzig full-scan
//     pricing — one BTRAN plus a dot product per column per iteration —
//     is kept as the oracle rule; the default steepest-edge rule with
//     Devex-style reference weights maintains the reduced-cost vector
//     incrementally from the pivot row, so an iteration costs O(fill)
//     instead of O(rows x cols). Both rules switch to Bland's rule
//     after a long degenerate stall, which guarantees termination;
//   * there is one entry, SimplexSolver::solve(model, capsule, arena),
//     and one warm-start carrier, the WarmState capsule: restored whole
//     on the matrix it was taken from, retried as a statuses-only start
//     (basis repair) when the matrix moved, ignored when it does not fit.
//
// This is the LP engine behind every rational relaxation in the paper
// (the "LP" upper-bound comparator and the LPR/LPRG/LPRR heuristics).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "lp/basis_lu.hpp"
#include "lp/model.hpp"
#include "lp/types.hpp"

namespace dls::lp {

/// Basis representation used by the solver.
enum class Factorization : unsigned char {
  /// DenseInverse for bases of at most 112 rows, SparseLu above
  /// (default): small bases fit the dense inverse in cache and skip the
  /// sparse bookkeeping; large bases need O(nnz) solves. The crossover
  /// was measured at K~16 platforms (m <= ~100).
  Auto,
  SparseLu,      ///< Markowitz LU + eta updates (O(nnz) solves)
  DenseInverse,  ///< explicit m x m inverse (legacy baseline; O(m^2) solves)
};

/// Entering-variable selection rule.
enum class Pricing : unsigned char {
  /// Full scan with freshly computed reduced costs every iteration (one
  /// BTRAN + one dot product per column). The reference oracle: slowest,
  /// simplest, and the rule every other rule is equivalence-tested
  /// against.
  Dantzig,
  /// Steepest-edge with Devex reference weights (default): picks the
  /// entering variable maximizing d_j^2 / w_j, with the weights updated
  /// per pivot from the pivot row. Cuts both the per-iteration cost
  /// (incremental reduced costs, a candidate list capped at 512 columns)
  /// and the pivot count.
  SteepestEdge,
};

struct SimplexOptions {
  int max_iterations = 0;    ///< 0 = automatic (scales with model size)
  /// Pivot cap between refactorizations: numerical-drift bound for the
  /// dense path (which refactors on this fixed interval) and the safety
  /// cap for the sparse path (which normally refactors earlier, when the
  /// eta file outgrows `refactor_fill`).
  int refactor_interval = 100;
  /// Sparse path: refactorize when the eta file's nonzeros exceed this
  /// multiple of the base LU's nonzeros. Bounds the FTRAN/BTRAN cost per
  /// pivot by the basis fill instead of the pivot count (> 0;
  /// `refactor_interval` stays as the drift backstop).
  double refactor_fill = 2.0;
  /// Warm-capsule eta compression: when a capsule is saved with an eta
  /// file above this multiple of the base LU nnz, the basis is
  /// refactorized first so the capsule carries a compact factorization
  /// (WarmState stays O(base nnz) across arbitrarily long warm chains).
  /// < 0 disables compression.
  double capsule_eta_fill = 0.25;
  int stall_limit = 500;     ///< degenerate pivots before switching to Bland
  /// Fill Solution::duals (one extra BTRAN). The adaptive rescheduler
  /// turns this off: its per-event solves never read duals.
  bool compute_duals = true;
  /// Basis representation; Auto resolves per model by basis size.
  Factorization factorization = Factorization::Auto;
  /// Hypersparse (reach-set) basis solves on the sparse path: the
  /// FTRAN of the entering column, the BTRAN of the pricing unit vector
  /// and the eta append run a Gilbert–Peierls symbolic pass first and
  /// touch only the solution's support, instead of sweeping all m rows.
  /// Pivot sequences and optima are bit-identical either way; disable
  /// only to measure the dense-pass baseline (bench/lp_scaling's
  /// no-hypersparse arm). A reach above 3% of the basis rows falls back
  /// to the dense pass for the remaining stages.
  bool hypersparse = true;
  /// Entering-variable rule.
  Pricing pricing = Pricing::SteepestEdge;
};

/// Resting place of one variable in a basis snapshot.
enum class BasisStatus : unsigned char { AtLower, AtUpper, Basic, Free };

/// The status of every structural variable and of every row's slack at
/// some basis: Solution::basis, and the statuses half of a WarmState.
struct Basis {
  std::vector<BasisStatus> variables;  ///< one per structural variable
  std::vector<BasisStatus> slacks;     ///< one per constraint row
};

/// Persistent warm-start capsule: the statuses PLUS the factorized
/// basis (sparse LU + eta file), carried across solves of models that
/// share one constraint matrix (bounds, costs and rhs may change freely
/// — the adaptive rescheduler's arrival/departure re-solves). Restoring
/// from a capsule costs O(m + nnz) (move + basic-value recompute)
/// instead of the refactorization a statuses-only Basis needs, which is
/// what makes warm solves cheaper than cold ones even on models whose
/// cold start needs no phase 1; capsule memory scales with the
/// factorization's nonzeros, not with m^2, and an oversized eta file is
/// compressed away by a refactorization before the capsule is written
/// (SimplexOptions::capsule_eta_fill), so long warm chains cannot grow
/// it. A fingerprint of the constraint rows guards reuse: a capsule
/// taken from a different matrix is not restored whole but retried as
/// a statuses-only start (basis repair, WarmKind::Basis) — its basic
/// set is refactorized against the new matrix and the composite bound
/// phase 1 absorbs any primal infeasibility — which is what a platform
/// capacity event that re-prices coefficients needs. A capsule that
/// carries statuses only (`basis` filled, no basic set, a stale
/// fingerprint) takes the same path. A basis that does not fit — wrong
/// shape, singular, or unrepairable — falls back to the cold all-slack
/// start, so handing over a stale capsule is always safe. solve() both
/// consumes and refreshes the capsule, so callers just keep handing the
/// same object back. A capsule written by a dense-inverse solve carries
/// no factorization (the dense inverse is not persisted); restoring it
/// refactorizes from the saved basic set instead.
struct WarmState {
  Basis basis;
  std::vector<int> basic_vars;   ///< row -> basic variable (internal index)
  BasisLu lu;                    ///< factorized basis + eta stack (may be empty)
  int pivots_since_refactor = 0; ///< drift budget carried across solves
  std::uint64_t fingerprint = 0; ///< constraint-matrix hash
  bool valid = false;

  /// Forces the next solve cold while still refreshing the capsule.
  void invalidate() { valid = false; }

  /// Heap footprint of the capsule (statuses + basic set + factorization).
  [[nodiscard]] std::size_t memory_bytes() const;
};

/// How a solve was seeded.
enum class WarmKind : unsigned char {
  Cold,     ///< all-slack start (no usable warm state)
  /// Capsule restored against its own constraint matrix (fingerprint
  /// matched; the saved factorization is reused when present).
  Capsule,
  /// Statuses-only start (basis repair): the capsule's matrix
  /// fingerprint no longer matched, so its basic set was refactorized
  /// against the new matrix.
  Basis,
};

/// Result of a solve. `x` has one entry per model variable.
/// `duals` holds one shadow price per row: d(objective)/d(rhs) in the
/// model's own sense (so for a Maximize model with <= rows, duals >= 0).
struct Solution {
  SolveStatus status = SolveStatus::NumericalError;
  double objective = 0.0;
  std::vector<double> x;
  std::vector<double> duals;
  int iterations = 0;        ///< total pivots across both phases
  int phase1_iterations = 0;
  /// Optimal basis, filled when status == Optimal; reusable as a warm
  /// start for a same-shaped model.
  Basis basis;
  /// Which start actually seeded the solve (Cold when no capsule was
  /// supplied or it was rejected). phase1_iterations > 0 with a warm
  /// kind means the composite bound phase 1 had to repair the restored
  /// basis first.
  WarmKind warm_kind = WarmKind::Cold;
  /// What the Auto factorization resolved to, plus factorization
  /// telemetry for bench/lp_scaling's per-rule columns.
  Factorization factorization_used = Factorization::SparseLu;
  Pricing pricing_used = Pricing::Dantzig;
  int refactorizations = 0;       ///< basis rebuilds during the solve
  double refactor_seconds = 0.0;  ///< wall time inside those rebuilds
  double pricing_y_seconds = 0.0; ///< wall time computing the pricing y = c_B' B^-1
  int pricing_refreshes = 0;      ///< full reduced-cost recomputations
  std::size_t eta_peak_nnz = 0;   ///< largest eta file reached between rebuilds
  bool column_cache_hit = false;  ///< column structure came from a cache
};

namespace detail {

/// Column-wise sparse copy of a model's structural constraint matrix —
/// the solver-internal representation every solve needs. Immutable once
/// built, keyed by the constraint-matrix fingerprint, and shared across
/// solves (and threads) of models with identical rows: the batch API's
/// "one symbolic analysis per campaign cell".
struct ColumnCache {
  std::uint64_t fingerprint = 0;
  int rows = 0;
  int cols = 0;
  std::vector<int> col_ptr;   ///< size cols+1
  std::vector<int> col_row;
  std::vector<double> col_val;
};

/// FNV-1a over the constraint rows (shape, relations, and every term's
/// variable and coefficient bits). Bounds, costs and rhs are excluded:
/// those may change between the solves a warm capsule (or a column
/// cache) spans.
[[nodiscard]] std::uint64_t matrix_fingerprint(const Model& model);

/// Builds the column-wise structure for `model`.
[[nodiscard]] std::shared_ptr<const ColumnCache> build_column_cache(
    const Model& model);

struct ArenaImpl;  ///< all reusable solver buffers; defined in simplex.cpp

}  // namespace detail

/// Thread-safe store of column caches keyed by matrix fingerprint: the
/// shared symbolic analysis behind BatchSolver. Arenas attached to the
/// same store publish the structures they build and reuse each other's.
class ColumnCacheStore {
 public:
  [[nodiscard]] std::shared_ptr<const detail::ColumnCache> find(
      std::uint64_t fingerprint) const;
  void insert(std::shared_ptr<const detail::ColumnCache> cache);
  /// Lookup counters (hits/misses across all attached arenas).
  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const detail::ColumnCache>>
      caches_;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
};

/// Reusable solver workspace: every buffer a solve needs (bounds, costs,
/// statuses, factorization scratch, pricing vectors, the column-wise
/// matrix copy) lives here and is recycled across solves, so a solve on
/// a previously seen shape allocates nothing. One arena serves one
/// thread at a time (solves reset what they read, so sharing sequentially
/// is always safe — results are bit-identical with or without an arena).
/// Attach a ColumnCacheStore to share column structures across arenas.
class SolveArena {
 public:
  SolveArena();
  explicit SolveArena(std::shared_ptr<ColumnCacheStore> store);
  ~SolveArena();
  SolveArena(SolveArena&&) noexcept;
  SolveArena& operator=(SolveArena&&) noexcept;
  SolveArena(const SolveArena&) = delete;
  SolveArena& operator=(const SolveArena&) = delete;

  [[nodiscard]] detail::ArenaImpl& impl() { return *impl_; }

 private:
  std::unique_ptr<detail::ArenaImpl> impl_;
};

class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  /// Solves the model's continuous relaxation (integrality marks ignored).
  /// A valid `state` seeds the solve: restored whole when it was taken
  /// from the same constraint matrix, repaired as a statuses-only start
  /// when the matrix moved, and ignored (cold start) when it does not
  /// fit; Solution::warm_kind reports which happened. An Optimal solve
  /// refreshes the capsule for the next call. All scratch comes from
  /// (and stays in) `arena` — the no-per-solve-allocation path
  /// BatchSolver and the campaign kernels run on; a null arena means a
  /// fresh one. Results are identical with or without an arena.
  [[nodiscard]] Solution solve(const Model& model, WarmState* state = nullptr,
                               SolveArena* arena = nullptr) const;

  [[nodiscard]] const SimplexOptions& options() const { return options_; }

 private:
  SimplexOptions options_;
};

}  // namespace dls::lp
