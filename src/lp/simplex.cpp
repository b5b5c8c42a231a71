#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <utility>

#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace dls::lp {

namespace detail {

enum class VarStatus : unsigned char { Basic, AtLower, AtUpper, Free };

/// All reusable solver buffers. A solve fully (re)initializes every
/// buffer it reads, so only capacity — never content — survives between
/// solves; results are bit-identical whether an arena is reused, fresh,
/// or shared sequentially between threads.
struct ArenaImpl {
  std::shared_ptr<ColumnCacheStore> store;          // optional shared analysis
  std::shared_ptr<const ColumnCache> columns;       // last structure used

  // Model-derived data (bounds/costs/rhs of the internal minimize form).
  std::vector<double> lb, ub, cost, b;
  std::vector<double> art_sign;

  // Basis state.
  std::vector<VarStatus> status;
  std::vector<double> value, xb;
  std::vector<int> basis;
  BasisLu lu;
  std::vector<int> csc_ptr, csc_row;
  std::vector<double> csc_val;
  std::vector<double> binv, scratch;  // dense path

  // Iteration scratch. y holds the pricing multipliers (with their
  // support when they come from a hypersparse BTRAN); w/rho are
  // the sparse-path FTRAN image and pricing row; hs is the reach-set
  // workspace their hypersparse solves share and fs the active
  // submatrix every refactorization eliminates (both arena-owned so
  // BatchSolver stays allocation-free and warm capsules carry no
  // scratch).
  std::vector<double> r;
  SparseVector y, w, rho;
  SolveScratch hs;
  FactorScratch fs;

  // Incremental pricing state. movable lists the non-fixed (lb != ub)
  // structural and slack columns in ascending index order; seen is the
  // capsule restore's duplicate check.
  std::vector<double> d, weights, alpha;
  std::vector<int> cand, touched, movable;
  std::vector<char> in_cand, seen;

  // c_B's support on the hypersparse pricing route: the rows whose
  // basic cost is nonzero (unordered), and row -> position in that
  // list, else -1.
  std::vector<int> cb_rows, cb_pos;
};

std::uint64_t matrix_fingerprint(const Model& model) {
  // The hash lives on the Model (lazily computed, invalidated only by
  // structural mutators), so warm re-solves and re-priced batch variants
  // pay it once instead of once per solve.
  return model.structure_fingerprint();
}

std::shared_ptr<const ColumnCache> build_column_cache(const Model& model) {
  auto cache = std::make_shared<ColumnCache>();
  const int n = model.num_variables();
  const int m = model.num_constraints();
  cache->fingerprint = matrix_fingerprint(model);
  cache->rows = m;
  cache->cols = n;
  cache->col_ptr.assign(n + 1, 0);
  std::vector<int> counts(n, 0);
  for (int c = 0; c < m; ++c)
    for (const Term& t : model.row(c)) ++counts[t.var];
  for (int j = 0; j < n; ++j)
    cache->col_ptr[j + 1] = cache->col_ptr[j] + counts[j];
  const int nnz = cache->col_ptr[n];
  cache->col_row.resize(nnz);
  cache->col_val.resize(nnz);
  std::vector<int> fill(n, 0);
  for (int c = 0; c < m; ++c) {
    for (const Term& t : model.row(c)) {
      const int pos = cache->col_ptr[t.var] + fill[t.var]++;
      cache->col_row[pos] = c;
      cache->col_val[pos] = t.coef;
    }
  }
  return cache;
}

}  // namespace detail

namespace {

using detail::VarStatus;

/// Bound or row violation treated as zero (scaled by the rhs magnitude
/// where a check says so).
constexpr double kFeasTol = 1e-7;
/// Reduced-cost threshold for optimality.
constexpr double kOptTol = 1e-9;
/// Smallest acceptable pivot magnitude.
constexpr double kPivotTol = 1e-9;

/// Scores that are mathematically tied differ only by representation
/// noise (dense inverse vs LU arithmetic), so a candidate must beat the
/// incumbent by this relative margin to take over — ties then resolve by
/// scan order whichever factorization computed the inputs, keeping the
/// visited vertex (and the rounding heuristics built on it) stable
/// across representations.
constexpr double kTieMargin = 1e-9;

/// Devex weights above this trigger a reference-framework reset (a full
/// pricing refresh, which reinitializes every weight to 1).
constexpr double kWeightCap = 1e7;

/// Factorization::Auto crossover: bases with at most this many rows use
/// the dense inverse (measured faster up to K~16 platforms, m <= ~100);
/// larger bases use the sparse LU.
constexpr int kDenseCrossoverRows = 112;

/// Reach-set density cutoff of the hypersparse solves: a symbolic pass
/// that reaches more than this fraction of the elimination steps
/// abandons the sparse solve and falls back to the dense pass for the
/// remaining stages (the sort/scatter bookkeeping would cost more than
/// the straight sweep). Deliberately strict: on the bench federations
/// the dense sweeps win from a few percent density up, so only
/// genuinely tiny reaches stay on the sparse route. Measured on the
/// Table-1 campaign, whose solves mostly fall back (traced
/// campaign-table1, `lp.solve_s`, Release, 4-thread x86-64 host, two
/// runs each): 1.08-1.11 s at 0.03, 1.12 s at 0.1, 1.32-1.37 s at 0.25
/// and 1.64-1.69 s at 1.0. At 0.03 the symbolic pass gives up after
/// 0.03 * m elimination steps, so a fallback wastes little.
constexpr double kHypersparseCrossover = 0.03;

/// Steepest-edge candidate cap: every pricing refresh keeps only the
/// strongest this-many candidates (by reduced-cost magnitude, with the
/// cutoff binade truncated in index order to land exactly on the cap),
/// which bounds the per-pivot scan and update cost on wide models.
/// Columns left off the list go stale until a windowed refill (a dry
/// list triggers one before any full-width refresh) or the fresh
/// confirmation pass that gates optimality brings them back. A flat 512
/// beats the extra refills on every width benchmarked.
constexpr std::size_t kCandidateCap = 512;

/// Reach-fraction buckets for the hypersparse solve histograms: dense
/// coverage of the tiny-reach regime the pivot loop lives in, with the
/// 1.0 bucket catching crossover fallbacks (recorded as a full sweep).
std::vector<double> reach_fraction_buckets() {
  return {0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0};
}

/// Hypersparse-solve instrumentation. Also touched from record_solve()
/// so the series register — and appear in a /metrics scrape — even when
/// every solve so far ran the dense-inverse path.
struct HyperObs {
  obs::Histogram ftran_reach, btran_reach;
  obs::Counter ftran_fallbacks, btran_fallbacks;
  HyperObs() {
    auto& reg = obs::registry();
    ftran_reach = reg.histogram(
        "dls_lp_ftran_reach_fraction",
        "Reach of hypersparse FTRANs as a fraction of basis rows",
        reach_fraction_buckets());
    btran_reach = reg.histogram(
        "dls_lp_btran_reach_fraction",
        "Reach of hypersparse BTRANs as a fraction of basis rows",
        reach_fraction_buckets());
    ftran_fallbacks =
        reg.counter("dls_lp_ftran_fallbacks_total",
                    "Hypersparse FTRANs that crossed the density cutoff");
    btran_fallbacks =
        reg.counter("dls_lp_btran_fallbacks_total",
                    "Hypersparse BTRANs that crossed the density cutoff");
  }
};

HyperObs& hyper_obs() {
  static HyperObs handles;
  return handles;
}

/// Full solver state for one solve() call. Variable indexing:
///   [0, n)            structural variables (model order)
///   [n, n+m)          slack of row i at index n+i
///   [n+m, n+2m)       artificial of row i at index n+m+i
/// All bulk storage lives in the arena (references below), so repeated
/// solves through one arena allocate nothing once capacities warm up.
class Worker {
public:
  Worker(const Model& model, const SimplexOptions& opt, detail::ArenaImpl& arena)
      : model_(model),
        opt_(opt),
        a_(arena),
        lb_(arena.lb),
        ub_(arena.ub),
        cost_(arena.cost),
        b_(arena.b),
        art_sign_(arena.art_sign),
        status_(arena.status),
        value_(arena.value),
        xb_(arena.xb),
        basis_(arena.basis),
        lu_(arena.lu),
        csc_ptr_(arena.csc_ptr),
        csc_row_(arena.csc_row),
        csc_val_(arena.csc_val),
        binv_(arena.binv),
        scratch_(arena.scratch),
        y_(arena.y.values),
        y_nz_(arena.y.pattern),
        w_(arena.w.values),
        w_nz_(arena.w.pattern),
        rho_(arena.rho.values),
        rho_nz_(arena.rho.pattern),
        r_(arena.r),
        hs_(arena.hs),
        d_(arena.d),
        weights_(arena.weights),
        alpha_(arena.alpha),
        cand_(arena.cand),
        touched_(arena.touched),
        movable_(arena.movable),
        in_cand_(arena.in_cand),
        cb_rows_(arena.cb_rows),
        cb_pos_(arena.cb_pos) {
    n_ = model.num_variables();
    m_ = model.num_constraints();
    total_ = n_ + 2 * m_;
    dense_ = opt.factorization == Factorization::DenseInverse ||
             (opt.factorization == Factorization::Auto &&
              m_ <= kDenseCrossoverRows);
    hyper_ = !dense_ && opt.hypersparse;
    if (hyper_) hs_.ensure(m_);
    rule_ = opt.pricing;
    window_ = std::max(64, (n_ + m_) / 16);
    fingerprint_ = detail::matrix_fingerprint(model);
    resolve_columns();
    build_bounds_and_costs();
  }

  Solution run(WarmState* state) {
    Solution sol = run_inner(state);
    sol.factorization_used =
        dense_ ? Factorization::DenseInverse : Factorization::SparseLu;
    sol.pricing_used = rule_;
    sol.refactorizations = refactor_count_;
    sol.refactor_seconds = static_cast<double>(refactor_ns_) * 1e-9;
    sol.pricing_y_seconds = static_cast<double>(pricing_y_ns_) * 1e-9;
    sol.pricing_refreshes = refresh_count_;
    sol.eta_peak_nnz = eta_peak_;
    sol.column_cache_hit = cache_hit_;
    return sol;
  }

private:
  Solution run_inner(WarmState* state) {
    Solution sol;
    if (m_ == 0) return solve_unconstrained();

    const int max_iters = opt_.max_iterations > 0
                              ? opt_.max_iterations
                              : 200 * (n_ + m_) + 20000;
    if (rule_ != Pricing::Dantzig) alpha_.assign(n_ + m_, 0.0);

    bool warm_ok = false;
    WarmKind kind = WarmKind::Cold;
    if (state != nullptr && state->valid) {
      warm_ok = init_from_state(*state);
      if (warm_ok) {
        kind = WarmKind::Capsule;
      } else if (state->fingerprint != fingerprint_) {
        // Basis repair: the constraint matrix moved under the capsule (a
        // platform capacity event re-priced coefficients), or the
        // capsule carries statuses only. The statuses may still describe
        // a near-optimal vertex of the new model; refactorize them
        // against the new matrix and let the composite bound phase 1
        // below absorb any primal infeasibility. A basic set the new
        // matrix makes singular fails the refactorization and falls
        // through to the cold start.
        warm_ok = init_basis_warm(state->basis);
        if (warm_ok) kind = WarmKind::Basis;
      }
    }
    if (warm_ok && warm_infeasible_) {
      // Composite bound phase 1: bounds moved since the basis was taken
      // (an application departed and its alphas were clamped to zero),
      // so some basic variables sit outside their bounds. Drive the
      // total violation to zero with the violated basics carrying
      // virtual costs of +/-1; a repair that does not converge falls
      // back to the cold start, whose artificial phase 1 is the
      // authority on true infeasibility.
      in_phase1_ = true;
      bound_phase1_ = true;
      const SolveStatus st = iterate(max_iters);
      if (st == SolveStatus::Optimal) check_cb_support();
      in_phase1_ = false;
      bound_phase1_ = false;
      if (st != SolveStatus::Optimal ||
          bound_infeasibility() > kFeasTol * rhs_scale_)
        warm_ok = false;
      else
        sol.phase1_iterations = iters_;
    }
    sol.warm_kind = warm_ok ? kind : WarmKind::Cold;
    if (!warm_ok) init_basis();

    // Phase 1: drive artificial infeasibility to zero if any was needed.
    if (need_phase1_) {
      in_phase1_ = true;
      const SolveStatus st = iterate(max_iters);
      sol.phase1_iterations = iters_;
      if (st == SolveStatus::NumericalError || st == SolveStatus::IterationLimit) {
        sol.status = st;
        sol.iterations = iters_;
        return sol;
      }
      // Unbounded cannot occur: the phase-1 objective is bounded below by 0.
      if (infeasibility() > kFeasTol * rhs_scale_) {
        sol.status = SolveStatus::Infeasible;
        sol.iterations = iters_;
        return sol;
      }
      // Pin all artificials; any still basic is at value ~0 and its [0,0]
      // bounds make the ratio test evict it before it could move.
      for (int i = 0; i < m_; ++i) {
        const int a = n_ + m_ + i;
        lb_[a] = ub_[a] = 0.0;
        if (status_[a] != VarStatus::Basic) set_nonbasic_value(a, VarStatus::AtLower);
      }
      in_phase1_ = false;
    }

    const SolveStatus st = iterate(max_iters);
    sol.iterations = iters_;
    sol.status = st;
    if (!dense_ && lu_.valid())
      eta_peak_ = std::max(eta_peak_, lu_.eta_nnz());
    if (st != SolveStatus::Optimal && st != SolveStatus::Unbounded) return sol;

    extract(sol);
    if (state != nullptr && st == SolveStatus::Optimal) save_state(sol, *state);
    return sol;
  }

  // ---- setup -------------------------------------------------------------

  /// Binds cols_ to the column-wise structural matrix: the arena's last
  /// structure if the fingerprint still matches, else the shared store,
  /// else a fresh build (published to the store when one is attached).
  void resolve_columns() {
    if (a_.columns && a_.columns->fingerprint == fingerprint_ &&
        a_.columns->rows == m_ && a_.columns->cols == n_) {
      cols_ = a_.columns.get();
      cache_hit_ = true;
      return;
    }
    if (a_.store) {
      if (auto c = a_.store->find(fingerprint_);
          c && c->rows == m_ && c->cols == n_) {
        a_.columns = std::move(c);
        cols_ = a_.columns.get();
        cache_hit_ = true;
        return;
      }
    }
    a_.columns = detail::build_column_cache(model_);
    cols_ = a_.columns.get();
    cache_hit_ = false;
    if (a_.store) a_.store->insert(a_.columns);
  }

  /// Slack and artificial columns are singletons (e_i, sigma_i e_i);
  /// they are synthesized on the fly, structural columns come from the
  /// shared column cache.
  template <typename Fn>
  void for_each_in_column(int j, Fn&& fn) const {
    if (j < n_) {
      const detail::ColumnCache& c = *cols_;
      for (int p = c.col_ptr[j]; p < c.col_ptr[j + 1]; ++p)
        fn(c.col_row[p], c.col_val[p]);
    } else if (j < n_ + m_) {
      fn(j - n_, 1.0);
    } else {
      fn(j - n_ - m_, art_sign_[j - n_ - m_]);
    }
  }

  /// Loads the internal minimize form: structural bounds and costs are
  /// copied in one pass per array (a Maximize cost is negated, which is
  /// bit-identical to multiplying by -1), slack bounds carry the row
  /// relations, artificials start pinned. O(n + m) at memory speed: a
  /// warm re-solve of a wide model pays this per solve.
  void build_bounds_and_costs() {
    lb_.resize(total_);
    ub_.resize(total_);
    cost_.resize(total_);
    std::ranges::copy(model_.lower_bounds(), lb_.begin());
    std::ranges::copy(model_.upper_bounds(), ub_.begin());
    const std::span<const double> obj = model_.objective_coefs();
    if (model_.sense() == Sense::Maximize)
      std::ranges::transform(obj, cost_.begin(), std::negate<>());
    else
      std::ranges::copy(obj, cost_.begin());
    std::fill(cost_.begin() + n_, cost_.end(), 0.0);
    b_.resize(m_);
    rhs_scale_ = 1.0;
    for (int c = 0; c < m_; ++c) {
      b_[c] = model_.rhs(c);
      rhs_scale_ = std::max(rhs_scale_, std::fabs(b_[c]));
      const int s = n_ + c;
      switch (model_.relation(c)) {
        case Relation::LessEqual:
          lb_[s] = 0.0;
          ub_[s] = kInf;
          break;
        case Relation::GreaterEqual:
          lb_[s] = -kInf;
          ub_[s] = 0.0;
          break;
        case Relation::Equal:
          lb_[s] = ub_[s] = 0.0;
          break;
      }
    }
    art_sign_.assign(m_, 1.0);
    // Widened per-row in init_basis when needed.
    std::fill(lb_.begin() + n_ + m_, lb_.end(), 0.0);
    std::fill(ub_.begin() + n_ + m_, ub_.end(), 0.0);
    // Structural and slack bounds never move during a solve, so the
    // movable set is fixed per solve. Artificials stay off it: they are
    // basic or pinned at [0,0] whenever a scan could reach them. Written
    // branch-free: every index is stored, and the cursor advances past
    // the non-fixed ones only.
    movable_.resize(static_cast<std::size_t>(n_ + m_));
    std::size_t kept = 0;
    for (int j = 0; j < n_ + m_; ++j) {
      movable_[kept] = j;
      kept += lb_[j] != ub_[j];
    }
    movable_.resize(kept);
  }

  /// Starting point: every structural variable nonbasic at its bound
  /// nearest zero (or free at 0), slacks basic. Rows whose slack value
  /// falls outside the slack bounds get an artificial basic instead.
  void init_basis() {
    status_.assign(total_, VarStatus::AtLower);
    value_.assign(total_, 0.0);
    for (int j = 0; j < total_; ++j) {
      if (std::isfinite(lb_[j]) &&
          (std::fabs(lb_[j]) <= std::fabs(ub_[j]) || !std::isfinite(ub_[j]))) {
        set_nonbasic_value(j, VarStatus::AtLower);
      } else if (std::isfinite(ub_[j])) {
        set_nonbasic_value(j, VarStatus::AtUpper);
      } else {
        set_nonbasic_value(j, VarStatus::Free);
      }
    }

    // Row activity of the nonbasic start.
    r_ = b_;
    for (int j = 0; j < n_; ++j) {
      if (value_[j] == 0.0) continue;
      for_each_in_column(j, [&](int row, double coef) { r_[row] -= coef * value_[j]; });
    }

    basis_.resize(m_);
    xb_.resize(m_);
    if (dense_) binv_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
    need_phase1_ = false;
    for (int i = 0; i < m_; ++i) {
      const int s = n_ + i;
      const bool fits = r_[i] >= lb_[s] - kFeasTol && r_[i] <= ub_[s] + kFeasTol;
      if (fits) {
        basis_[i] = s;
        xb_[i] = r_[i];
        status_[s] = VarStatus::Basic;
        if (dense_) binv_at(i, i) = 1.0;
      } else {
        // Park the slack at the violated side's bound and absorb the
        // remainder into a fresh artificial of matching sign.
        const double parked = r_[i] > ub_[s] ? ub_[s] : lb_[s];
        set_nonbasic_value(s, r_[i] > ub_[s] ? VarStatus::AtUpper : VarStatus::AtLower);
        const double residual = r_[i] - parked;
        const int a = n_ + m_ + i;
        art_sign_[i] = residual >= 0.0 ? 1.0 : -1.0;
        lb_[a] = 0.0;
        ub_[a] = kInf;
        cost_[a] = 0.0;  // phase-1 pricing adds the +1 cost virtually
        basis_[i] = a;
        xb_[i] = std::fabs(residual);
        status_[a] = VarStatus::Basic;
        if (dense_) binv_at(i, i) = art_sign_[i];  // B = diag(sigma) on art. rows
        need_phase1_ = true;
      }
    }
    if (!dense_) {
      // The all-logical start is diagonal (+/-1), so factorizing cannot
      // fail; it also recomputes xb_, reproducing the values above.
      const bool ok = refactor();
      DLS_ASSERT(ok);
    }
    pivots_since_refactor_ = 0;
    iters_ = 0;
    stall_ = 0;
    use_bland_ = false;
  }

  /// Maps a saved status back, sanitized against bounds that may have
  /// moved since the basis was taken: a resting place that no longer
  /// exists falls back the way the cold start picks resting places
  /// (nearest-zero finite bound, else free). Basic entries are collected
  /// into basis_ unless `keep_basis_order` (the capsule path, where the
  /// saved row order must match the saved inverse).
  void place_status(int j, BasisStatus st, bool keep_basis_order) {
    if (st == BasisStatus::Basic) {
      if (!keep_basis_order) basis_.push_back(j);
      status_[j] = VarStatus::Basic;
      return;
    }
    VarStatus want = st == BasisStatus::AtUpper   ? VarStatus::AtUpper
                     : st == BasisStatus::AtLower ? VarStatus::AtLower
                                                  : VarStatus::Free;
    if (want == VarStatus::AtLower && !std::isfinite(lb_[j]))
      want = std::isfinite(ub_[j]) ? VarStatus::AtUpper : VarStatus::Free;
    if (want == VarStatus::AtUpper && !std::isfinite(ub_[j]))
      want = std::isfinite(lb_[j]) ? VarStatus::AtLower : VarStatus::Free;
    if (want == VarStatus::Free && std::isfinite(lb_[j]) &&
        (std::fabs(lb_[j]) <= std::fabs(ub_[j]) || !std::isfinite(ub_[j])))
      want = VarStatus::AtLower;
    else if (want == VarStatus::Free && std::isfinite(ub_[j]))
      want = VarStatus::AtUpper;
    set_nonbasic_value(j, want);
  }

  /// Shared tail of both warm paths, run once xb_ holds the basic values
  /// of the restored basis: reset the iteration counters. A restored
  /// basis needs no artificial phase 1 (artificials stay pinned
  /// nonbasic at zero); basic values pushed outside their bounds by
  /// bound changes are flagged for the composite bound phase 1 instead.
  bool finish_warm_init() {
    iters_ = 0;
    stall_ = 0;
    use_bland_ = false;
    need_phase1_ = false;
    const double tol = kFeasTol * std::max(1.0, rhs_scale_);
    warm_infeasible_ = false;
    for (int i = 0; i < m_; ++i) {
      const int bvar = basis_[i];
      if (xb_[i] < lb_[bvar] - tol || xb_[i] > ub_[bvar] + tol)
        warm_infeasible_ = true;
    }
    return true;
  }

  /// Restores a statuses-only basis: the factorization must be rebuilt
  /// from scratch. Returns false — leaving the caller to run the cold
  /// start — when the basis has the wrong cardinality, is singular, or
  /// is no longer primal feasible.
  bool init_basis_warm(const Basis& warm) {
    if (static_cast<int>(warm.variables.size()) != n_ ||
        static_cast<int>(warm.slacks.size()) != m_)
      return false;
    status_.assign(total_, VarStatus::AtLower);
    value_.assign(total_, 0.0);
    basis_.clear();
    for (int j = 0; j < n_; ++j) place_status(j, warm.variables[j], false);
    for (int i = 0; i < m_; ++i) place_status(n_ + i, warm.slacks[i], false);
    if (static_cast<int>(basis_.size()) != m_) return false;
    // Artificials stay pinned at their [0,0] bounds from build_bounds_and_costs.

    // The refactorization fills binv_ and recomputes xb_; the dense
    // recompute writes into xb_, so it is sized first.
    xb_.resize(m_);
    if (!refactor()) return false;
    return finish_warm_init();
  }

  /// Restores a capsule: statuses plus the saved factorization, O(m +
  /// nnz). Requires the capsule to come from the same constraint matrix
  /// (the fingerprint check); bounds, costs and rhs may differ. The
  /// capsule's heavy buffers are *moved* into the worker (the capsule is
  /// marked consumed); save_state moves them back after an Optimal
  /// solve. A capsule without a usable factorization (saved by the
  /// dense-inverse path, or consumed under a different Factorization)
  /// still warm-starts from its basic set via a refactorization.
  bool init_from_state(WarmState& state) {
    if (static_cast<int>(state.basis.variables.size()) != n_ ||
        static_cast<int>(state.basis.slacks.size()) != m_ ||
        static_cast<int>(state.basic_vars.size()) != m_ ||
        state.fingerprint != fingerprint_)
      return false;
    status_.resize(total_);
    value_.resize(total_);
    // Most columns rest AtLower at a finite lower bound (an alpha at 0,
    // an idle slot's pinned alpha); they restore directly. Every other
    // status goes through place_status's sanitizing switch.
    int basics = 0;
    const auto restore = [&](int j, BasisStatus st) {
      if (st == BasisStatus::AtLower && std::isfinite(lb_[j])) {
        status_[j] = VarStatus::AtLower;
        value_[j] = lb_[j];
        return;
      }
      value_[j] = 0.0;
      basics += st == BasisStatus::Basic;
      place_status(j, st, true);
    };
    for (int j = 0; j < n_; ++j) restore(j, state.basis.variables[j]);
    for (int i = 0; i < m_; ++i) restore(n_ + i, state.basis.slacks[i]);
    std::fill(status_.begin() + n_ + m_, status_.end(), VarStatus::AtLower);
    std::fill(value_.begin() + n_ + m_, value_.end(), 0.0);
    if (basics != m_) return false;
    // Each Basic-marked variable must appear in basic_vars exactly once;
    // a duplicate entry would desynchronize basis_ from the factorization.
    a_.seen.assign(static_cast<std::size_t>(n_ + m_), 0);
    for (int b : state.basic_vars) {
      if (b < 0 || b >= n_ + m_ || status_[b] != VarStatus::Basic ||
          a_.seen[static_cast<std::size_t>(b)])
        return false;
      a_.seen[static_cast<std::size_t>(b)] = 1;
    }
    basis_ = std::move(state.basic_vars);
    state.valid = false;  // consumed; save_state re-validates after the solve
    if (!dense_ && state.lu.dimension() == m_) {
      lu_ = std::move(state.lu);
      pivots_since_refactor_ = state.pivots_since_refactor;
      recompute_basic_values();
    } else {
      xb_.resize(m_);  // as in init_basis_warm
      if (!refactor()) return false;
    }
    return finish_warm_init();
  }

  /// Refreshes the caller's capsule from the optimal basis just reached
  /// (moving the heavy buffers: the worker is done with them). A
  /// degenerate optimum with an artificial still basic cannot be
  /// captured (its column lives outside the public index space); the
  /// capsule is invalidated so the next solve runs cold. An eta file
  /// that outgrew capsule_eta_fill is compressed away by one extra
  /// refactorization first, so the capsule a long warm chain keeps
  /// re-saving stays O(base LU nnz) instead of accreting etas.
  void save_state(const Solution& sol, WarmState& state) {
    for (int b : basis_)
      if (b >= n_ + m_) {
        state.valid = false;
        return;
      }
    if (!dense_) {
      eta_peak_ = std::max(eta_peak_, lu_.eta_nnz());
      if (opt_.capsule_eta_fill >= 0.0 &&
          static_cast<double>(lu_.eta_nnz()) >
              opt_.capsule_eta_fill *
                  static_cast<double>(std::max(lu_.base_nnz(),
                                               static_cast<std::size_t>(m_)))) {
        // Post-extract, so the basic-value recompute inside is harmless.
        if (!refactor()) {
          state.valid = false;
          return;
        }
      }
    }
    state.basis = sol.basis;
    state.basic_vars = std::move(basis_);
    if (dense_)
      state.lu.clear();  // the dense inverse is not persisted
    else
      state.lu = std::move(lu_);
    state.pivots_since_refactor = pivots_since_refactor_;
    state.fingerprint = fingerprint_;
    state.valid = true;
  }

  void set_nonbasic_value(int j, VarStatus st) {
    status_[j] = st;
    switch (st) {
      case VarStatus::AtLower: value_[j] = lb_[j]; break;
      case VarStatus::AtUpper: value_[j] = ub_[j]; break;
      case VarStatus::Free: value_[j] = 0.0; break;
      case VarStatus::Basic: DLS_ASSERT(false);
    }
  }

  // ---- pricing -----------------------------------------------------------
  //
  // Fixed columns (lb == ub: an idle load slot's alphas, equality-row
  // slacks) can never enter, so the scans walk movable_ and the pivot-row
  // sweep skips them: a fixed column's d_ and Devex weight are write-only,
  // and whatever an earlier refresh or solve left there is never read.
  // The one fixed column pricing does handle is a fixed basic that leaves
  // the basis (a departed load's alpha still basic in a warm capsule);
  // update_pricing sets its d_ and weight explicitly before anything reads
  // them. Scan cursors and window boundaries stay measured over every
  // column, so scan order, candidate lists and tie-breaks are those of a
  // scan that visits the fixed columns and passes over them.

  /// Calls fn(j) for each movable column j, in scan order, of the cyclic
  /// window of `count` indices that starts at `start` in [0, nn).
  template <typename Fn>
  void for_each_movable_in_window(int start, int count, int nn, Fn&& fn) const {
    const auto run = [&](int lo, int hi) {
      for (auto it = std::lower_bound(movable_.begin(), movable_.end(), lo);
           it != movable_.end() && *it < hi; ++it)
        fn(*it);
    };
    if (start + count <= nn) {
      run(start, start + count);
    } else {
      run(start, nn);
      run(0, start + count - nn);
    }
  }

  double current_cost(int j) const {
    if (in_phase1_) return j >= n_ + m_ ? 1.0 : 0.0;
    return cost_[j];
  }

  /// Phase-dependent cost of the basic variable in row i. The composite
  /// bound phase 1 charges violated basics +/-1 (recomputed every
  /// iteration: the charge drops once the variable re-enters its range).
  double basis_cost(int i) const {
    if (!in_phase1_) return cost_[basis_[i]];
    if (!bound_phase1_) return basis_[i] >= n_ + m_ ? 1.0 : 0.0;
    const int b = basis_[i];
    const double tol = kFeasTol * std::max(1.0, rhs_scale_);
    if (xb_[i] > ub_[b] + tol) return 1.0;
    if (xb_[i] < lb_[b] - tol) return -1.0;
    return 0.0;
  }

  /// True while c_B's support is kept as state (cb_rows_/cb_pos_): on
  /// the hypersparse route, until a pricing BTRAN of this solve falls
  /// back and the rest of the solve prices through the dense route.
  bool tracks_cb_support() const { return hyper_ && !pricing_fell_back_; }

  /// Rebuilds c_B's support in O(m): at each iterate() entry, where a
  /// phase flag may have changed, and after every mid-phase
  /// refactorization, which recomputes all of xb_.
  void rebuild_cb_support() {
    cb_rows_.clear();
    cb_pos_.assign(static_cast<std::size_t>(m_), -1);
    for (int i = 0; i < m_; ++i) {
      if (basis_cost(i) == 0.0) continue;  // -0.0 too, as the gather skips it
      cb_pos_[i] = static_cast<int>(cb_rows_.size());
      cb_rows_.push_back(i);
    }
  }

  /// Asserts that every row on the tracked support still carries a
  /// charge, as the composite bound phase 1 ends: the charges follow the
  /// basic values, and the support with them (a step's w-pattern rows,
  /// every mid-phase refactorization). Out of line and cold, so the
  /// check stays off the solve's hot code.
  [[gnu::noinline, gnu::cold]] void check_cb_support() const {
    if (!tracks_cb_support()) return;
    for (const int i : cb_rows_) DLS_ASSERT(basis_cost(i) != 0.0);
  }

  /// O(1) update of c_B's support for row i, whose basic variable or
  /// (composite bound phase 1) basic value just changed.
  void update_cb_support(int i) {
    int& pos = cb_pos_[i];
    const bool in = basis_cost(i) != 0.0;
    if (in == (pos >= 0)) return;
    if (in) {
      pos = static_cast<int>(cb_rows_.size());
      cb_rows_.push_back(i);
      return;
    }
    const int last = cb_rows_.back();
    cb_rows_[pos] = last;
    cb_pos_[last] = pos;
    cb_rows_.pop_back();
    pos = -1;
  }

  /// BTRAN of the phase-aware basic costs: y_ = c_B' B^{-1}, timed once
  /// per call for Solution::pricing_y_seconds.
  void compute_pricing_y() {
    const std::uint64_t start = now_ns();
    solve_pricing_y();
    pricing_y_ns_ += now_ns() - start;
  }

  /// compute_pricing_y()'s body. On the hypersparse route c_B's support
  /// comes from cb_rows_, so a call costs O(|c_B|) plus the solve, not
  /// O(m): y is cleared through its last pattern (in full only after a
  /// dense-route BTRAN left it dense), the support's costs are
  /// scattered in and btran_sparse runs. Its nonzeros are bitwise those
  /// of the dense pass (a zero comes back +0.0 where the dense pass may
  /// leave -0.0, and no pricing test reads the sign of a zero), and it
  /// sorts its reach, so the unordered support gives the bits an
  /// ascending one would. The route follows what this solve has seen:
  /// a support already past the crossover goes straight to the dense
  /// pass, and once one pricing BTRAN falls back (wide reaches, as on
  /// the Table-1 bases) the rest of the solve gathers all m costs and
  /// stays dense instead of paying the abandoned symbolic pass again.
  void solve_pricing_y() {
    y_.resize(m_);
    if (dense_) {
      std::fill(y_.begin(), y_.end(), 0.0);
      for (int i = 0; i < m_; ++i) {
        const double cb = basis_cost(i);
        if (cb == 0.0) continue;
        const double* row = &binv_[static_cast<std::size_t>(i) * m_];
        for (int k = 0; k < m_; ++k) y_[k] += cb * row[k];
      }
    } else if (!tracks_cb_support()) {
      for (int i = 0; i < m_; ++i) y_[i] = basis_cost(i);
      lu_.btran(y_);
    } else {
      if (y_sparse_)
        a_.y.clear_support();
      else
        a_.y.reset(m_);
      y_nz_.assign(cb_rows_.begin(), cb_rows_.end());
      for (const int i : y_nz_) y_[i] = basis_cost(i);
      if (static_cast<double>(y_nz_.size()) > kHypersparseCrossover * m_) {
        lu_.btran(y_);
        y_sparse_ = false;
        return;
      }
      pricing_fell_back_ =
          lu_.btran_sparse(a_.y, hs_, kHypersparseCrossover).fallback;
      y_sparse_ = true;
    }
  }

  /// Legacy full-scan pricing over freshly computed reduced costs: the
  /// Dantzig oracle, and the only pricing valid when the cost vector
  /// moves mid-iteration (composite bound phase 1) or when Bland's rule
  /// needs exact signs (anti-cycling).
  void pick_entering_full(int& q, bool& increase) {
    q = -1;
    increase = true;
    double best_score = kOptTol;
    for (const int j : movable_) {
      if (status_[j] == VarStatus::Basic) continue;
      double d = current_cost(j);
      for_each_in_column(j, [&](int row, double coef) { d -= y_[row] * coef; });
      const bool can_up = status_[j] != VarStatus::AtUpper;
      const bool can_down = status_[j] != VarStatus::AtLower;
      if (use_bland_) {
        if (can_up && d < -kOptTol) { q = j; increase = true; break; }
        if (can_down && d > kOptTol) { q = j; increase = false; break; }
      } else {
        const double bar = best_score * (1.0 + kTieMargin);
        if (can_up && -d > bar) { best_score = -d; q = j; increase = true; }
        if (can_down && d > bar) { best_score = d; q = j; increase = false; }
      }
    }
  }

  /// Windowed variant of the legacy scan for the composite bound
  /// phase 1 under steepest edge: the virtual costs move with
  /// every pivot, so nothing can be maintained across iterations — but a
  /// full O(nnz) sweep per pivot is overkill when any descent direction
  /// makes progress. Scans cycling windows of freshly computed reduced
  /// costs and takes the best of the first window that holds a
  /// candidate; a full cycle with nothing attractive is exact
  /// optimality, same as the full scan. (The Dantzig oracle and Bland's
  /// rule keep the full scan: the former by definition, the latter for
  /// its termination guarantee.)
  void pick_entering_window(int& q, bool& increase) {
    q = -1;
    increase = true;
    const int nn = total_;
    int start = phase1_cursor_;
    int examined = 0;
    double best_score = kOptTol;
    while (examined < nn) {
      const int count = std::min(window_, nn - examined);
      for_each_movable_in_window(start, count, nn, [&](int j) {
        if (status_[j] == VarStatus::Basic) return;
        double d = current_cost(j);
        for_each_in_column(j, [&](int row, double coef) { d -= y_[row] * coef; });
        const double bar = best_score * (1.0 + kTieMargin);
        if (status_[j] != VarStatus::AtUpper && -d > bar) {
          best_score = -d;
          q = j;
          increase = true;
        }
        if (status_[j] != VarStatus::AtLower && d > bar) {
          best_score = d;
          q = j;
          increase = false;
        }
      });
      examined += count;
      start += count;
      if (start >= nn) start -= nn;
      if (q >= 0) break;
    }
    phase1_cursor_ = start;
  }

  /// Drops the weakest candidates until roughly kCandidateCap remain, using
  /// a histogram over the binary exponents of |d| instead of a selection
  /// sort: one pass counts candidates per binade, a walk from the top
  /// binade finds the cutoff that keeps at least kCandidateCap, and a final
  /// pass compacts the list in place — index order (and thus the
  /// tie-breaking scan order) is preserved, and no comparator ever runs.
  /// Whole binades are kept or dropped, so heavy score ties can leave
  /// somewhat more than kCandidateCap candidates; that only costs speed,
  /// never correctness (off-list columns are re-found by the next
  /// refresh).
  void truncate_candidates() {
    constexpr int kBuckets = 2048;  // full biased-exponent range of a double
    int hist[kBuckets];
    std::memset(hist, 0, sizeof(hist));
    const auto binade = [this](int j) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &d_[j], sizeof(bits));
      return static_cast<int>((bits >> 52) & 0x7ff);
    };
    for (const int j : cand_) ++hist[binade(j)];
    std::size_t kept = 0;
    int cutoff = 0;
    for (int b = kBuckets - 1; b >= 0; --b) {
      kept += static_cast<std::size_t>(hist[b]);
      if (kept >= kCandidateCap) {
        cutoff = b;
        break;
      }
    }
    // Whole binades above the cutoff are kept; the cutoff binade fills
    // the remainder in index order. The hard cap matters on the tied
    // cohorts of these route LPs: thousands of columns can share one
    // binade, and keeping them all would make every per-pivot candidate
    // sweep O(n/16) whatever the cap.
    std::size_t keep = 0;
    std::size_t cutoff_left = kCandidateCap - std::min(
        kCandidateCap, kept - static_cast<std::size_t>(hist[cutoff]));
    for (std::size_t s = 0; s < cand_.size(); ++s) {
      const int j = cand_[s];
      const int b = binade(j);
      if (b > cutoff || (b == cutoff && cutoff_left > 0)) {
        cand_[keep++] = j;
        if (b == cutoff) --cutoff_left;
      } else {
        in_cand_[j] = 0;
      }
    }
    cand_.resize(keep);
  }

  /// Profitable to move in some allowed direction at the opt tolerance.
  bool attractive(int j) const {
    const double d = d_[j];
    return (status_[j] != VarStatus::AtUpper && d < -kOptTol) ||
           (status_[j] != VarStatus::AtLower && d > kOptTol);
  }

  /// Recomputes the whole reduced-cost vector (one BTRAN + one sweep of
  /// the column structures), resets the Devex reference framework, and
  /// rebuilds the candidate list. Runs at phase entry, after every
  /// refactorization (the incremental updates drift at the same rate the
  /// factorization does), on Devex weight overflow, and as the
  /// confirmation pass before declaring optimality.
  void refresh_pricing() {
    ++refresh_count_;
    const int nn = n_ + m_;
    compute_pricing_y();
    d_.resize(nn);
    // One fused pass over the columns: reduced cost, Devex weight reset
    // and candidate collection together. Per-column arithmetic, scan
    // order and the resulting candidate list are identical to running
    // the three passes separately; fusing just avoids streaming the
    // O(n) arrays through the cache three times per refresh.
    weights_.resize(nn);
    cand_.clear();
    in_cand_.assign(nn, 0);
    const detail::ColumnCache& c = *cols_;
    for (const int j : movable_) {
      weights_[j] = 1.0;
      if (status_[j] == VarStatus::Basic) {
        d_[j] = 0.0;
        continue;
      }
      double d = current_cost(j);
      if (j < n_) {
        for (int p = c.col_ptr[j]; p < c.col_ptr[j + 1]; ++p)
          d -= y_[c.col_row[p]] * c.col_val[p];
      } else {
        d -= y_[j - n_];  // slack column e_{j-n}
      }
      d_[j] = d;
      if (attractive(j)) {
        cand_.push_back(j);
        in_cand_[j] = 1;
      }
    }
    if (cand_.size() > kCandidateCap) truncate_candidates();
    d_fresh_ = true;
    pricing_ready_ = true;
  }

  /// Cheap mid-phase candidate refill for steepest edge, replacing the
  /// full O(n) refresh the solver used to pay every time its candidate
  /// list ran dry (on LPs with n >> m — K^2 route columns over O(K)
  /// rows — one pivot neutralizes whole cohorts of tied columns, so dry
  /// lists are the common case, every handful of pivots). One BTRAN
  /// refreshes y, then cycling windows of columns get their reduced
  /// costs recomputed with exactly the per-column arithmetic of
  /// refresh_pricing; the first window yielding attractive columns ends
  /// the scan. Refilled candidates restart at the Devex reference
  /// weight. A fruitless full cycle recomputed every reduced cost
  /// against one fresh y — the same optimality evidence a full refresh
  /// produces — so it sets d_fresh_ and the caller can declare
  /// optimality without another O(n) pass.
  bool refill_candidates() {
    const int nn = n_ + m_;
    compute_pricing_y();
    const detail::ColumnCache& c = *cols_;
    int start = refill_cursor_;
    int examined = 0;
    bool found = false;
    while (examined < nn && !found) {
      const int count = std::min(window_, nn - examined);
      for_each_movable_in_window(start, count, nn, [&](int j) {
        if (status_[j] == VarStatus::Basic) {
          d_[j] = 0.0;
          return;
        }
        double d = current_cost(j);
        if (j < n_) {
          for (int p = c.col_ptr[j]; p < c.col_ptr[j + 1]; ++p)
            d -= y_[c.col_row[p]] * c.col_val[p];
        } else {
          d -= y_[j - n_];
        }
        d_[j] = d;
        if (in_cand_[j]) return;
        if (attractive(j)) {
          weights_[j] = 1.0;
          in_cand_[j] = 1;
          cand_.push_back(j);
          found = true;
        }
      });
      examined += count;
      start += count;
      if (start >= nn) start -= nn;
    }
    refill_cursor_ = start;
    if (cand_.size() > kCandidateCap) truncate_candidates();
    if (!found && examined >= nn) d_fresh_ = true;
    return found;
  }

  /// Steepest-edge entering-variable selection over the incrementally
  /// maintained reduced costs: scans (and compacts) the candidate list,
  /// scoring d^2/weight.
  void pick_entering_incremental(int& q, bool& increase) {
    q = -1;
    increase = true;
    double best = 0.0;
    std::size_t keep = 0;
    for (std::size_t s = 0; s < cand_.size(); ++s) {
      const int j = cand_[s];
      if (status_[j] == VarStatus::Basic || lb_[j] == ub_[j] ||
          !attractive(j)) {
        in_cand_[j] = 0;  // lazily dropped; re-added if it turns attractive
        continue;
      }
      cand_[keep++] = j;
      const double d = d_[j];
      const double score = d * d / weights_[j];
      if (score > best * (1.0 + kTieMargin)) {
        best = score;
        q = j;
        increase = d < 0.0;
      }
    }
    cand_.resize(keep);
  }

  /// Post-pivot maintenance of the incremental pricing state: with the
  /// pivot row alpha_r = rho' A (rho = row `leave` of the pre-update
  /// B^{-1}, so this must run before the factorization absorbs the
  /// pivot), every reduced cost moves by d_j -= (d_q / alpha_rq) *
  /// alpha_rj, and the Devex weights take their reference update from
  /// the same row. Called after the status flips (q basic, old_var at a
  /// bound), so the touched sweep skips q and updates old_var naturally.
  void update_pricing(int q, int old_var, int leave, double pivot) {
    const int nn = n_ + m_;
    const double ratio = d_[q] / pivot;
    const double wq = weights_[q];
    const double inv_p2 = 1.0 / (pivot * pivot);

    // rho = (row `leave` of B^{-1})' with its nonzero support. On the
    // hypersparse path the solve itself hands back the pattern; the
    // dense inverse keeps its scan (a dense row has no other source).
    const double* rv;
    if (dense_) {
      rv = &binv_[static_cast<std::size_t>(leave) * m_];
      rho_nz_.clear();
      for (int i = 0; i < m_; ++i)
        if (rv[i] != 0.0) rho_nz_.push_back(i);
    } else if (hyper_) {
      const BasisLu::SolveStats hst =
          lu_.btran_unit_sparse(leave, a_.rho, hs_, kHypersparseCrossover);
      HyperObs& ho = hyper_obs();
      ho.btran_reach.observe(
          hst.fallback ? 1.0 : static_cast<double>(hst.reach) / m_);
      if (hst.fallback) ho.btran_fallbacks.inc();
      rv = rho_.data();
    } else {
      lu_.btran_unit(leave, rho_, &rho_nz_);
      rv = rho_.data();
    }

    // Two ways to apply alpha = rho' A.
    //
    // Row-wise scatters every touched column (exact maintenance of the
    // whole d_ vector, and newly attractive columns join the candidate
    // list); its cost is the nnz of the rows in rho's support, which on
    // a near-dense rho is the whole matrix. Column-wise computes
    // alpha_j = rho . A_j for the *candidates only* — the off-candidate
    // reduced costs go stale, which steepest-edge tolerates because
    // optimality is only ever declared off a fresh confirmation pass
    // (refresh_pricing rebuilds the list when the candidates run dry).
    // On a warm re-solve the candidate list is a few dozen columns while
    // rho is dense, so the candidate sweep turns an O(nnz) pivot into a
    // near-free one. Pick whichever sweep reads fewer coefficients; the
    // choice is deterministic (it depends only on the pivot path so
    // far), so solves stay reproducible.
    std::size_t rowwise_cost = rho_nz_.size();
    for (const int i : rho_nz_) rowwise_cost += model_.row(i).size();
    const std::size_t avg_col_nnz =
        1 + static_cast<std::size_t>(cols_->col_ptr[n_]) /
                static_cast<std::size_t>(std::max(1, n_));
    const bool column_wise = cand_.size() * avg_col_nnz < rowwise_cost;

    if (column_wise) {
      std::size_t keep = 0;
      for (std::size_t s = 0; s < cand_.size(); ++s) {
        const int j = cand_[s];
        if (status_[j] == VarStatus::Basic || lb_[j] == ub_[j]) {
          in_cand_[j] = 0;
          continue;
        }
        cand_[keep++] = j;
        double aj = 0.0;
        for_each_in_column(j, [&](int row, double coef) { aj += rv[row] * coef; });
        if (aj == 0.0) continue;
        d_[j] -= ratio * aj;
        const double w_new = aj * aj * inv_p2 * wq;
        if (w_new > weights_[j]) {
          weights_[j] = w_new;
          if (w_new > kWeightCap) weight_overflow_ = true;
        }
      }
      cand_.resize(keep);
    } else {
      // Artificial columns are skipped: they are only ever basic or
      // fixed. Fixed terms are skipped before they accumulate, which
      // leaves the free columns' sums and relative touched_ order as is.
      // A model without fixed columns (every Table-1 solve) skips the
      // per-term test.
      touched_.clear();
      const bool any_fixed = static_cast<int>(movable_.size()) != nn;
      for (const int i : rho_nz_) {
        const double ri = rv[i];
        const int s = n_ + i;
        if (lb_[s] != ub_[s]) {
          if (alpha_[s] == 0.0) touched_.push_back(s);
          alpha_[s] += ri;
        }
        for (const Term& t : model_.row(i)) {
          if (any_fixed && lb_[t.var] == ub_[t.var]) continue;
          if (alpha_[t.var] == 0.0) touched_.push_back(t.var);
          alpha_[t.var] += ri * t.coef;
        }
      }

      for (const int j : touched_) {
        const double aj = alpha_[j];
        alpha_[j] = 0.0;
        if (aj == 0.0) continue;  // duplicate entry after exact cancellation
        if (status_[j] == VarStatus::Basic) continue;
        d_[j] -= ratio * aj;
        const double w_new = aj * aj * inv_p2 * wq;
        if (w_new > weights_[j]) {
          weights_[j] = w_new;
          if (w_new > kWeightCap) weight_overflow_ = true;
        }
        // Newly attractive columns rejoin the list, but never past twice
        // the cap — beyond that they wait for the next refresh, keeping
        // the per-pivot scan bounded.
        if (!in_cand_[j] && cand_.size() < 2 * kCandidateCap && attractive(j)) {
          in_cand_[j] = 1;
          cand_.push_back(j);
        }
      }
    }

    d_[q] = 0.0;  // entered the basis
    // A leaving artificial is pinned, never re-priced; a leaving fixed
    // column gets its d_ and weight set here (see the pricing section).
    if (old_var < nn) {
      d_[old_var] = -ratio;
      weights_[old_var] = std::max(wq * inv_p2, 1.0);
      if (!in_cand_[old_var] && attractive(old_var)) {
        in_cand_[old_var] = 1;
        cand_.push_back(old_var);
      }
    }
    d_fresh_ = false;
    if (weight_overflow_) {
      // Reference framework exhausted: schedule a full refresh, which
      // restarts every weight at 1.
      weight_overflow_ = false;
      pricing_ready_ = false;
    }
  }

  // ---- iteration ---------------------------------------------------------

  double infeasibility() const {
    double total = 0.0;
    for (int i = 0; i < m_; ++i)
      if (basis_[i] >= n_ + m_) total += std::max(0.0, xb_[i]);
    return total;
  }

  /// Total bound violation of the basic values (composite phase 1).
  double bound_infeasibility() const {
    double total = 0.0;
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[i];
      total += std::max(0.0, xb_[i] - ub_[b]) + std::max(0.0, lb_[b] - xb_[i]);
    }
    return total;
  }

  /// Runs one phase (the flags in_phase1_/bound_phase1_ are fixed for
  /// the call) until optimality, unboundedness or the iteration limit.
  /// The hypersparse route keeps c_B's support as state across the
  /// phase: rebuilt here at entry and after each refactorization, and
  /// updated per pivot for the leaving row (and, in the composite bound
  /// phase 1, for every row of w's pattern, whose xb_ moved).
  SolveStatus iterate(int max_iters) {
    y_.resize(m_);
    if (hyper_) {
      // Restore the SparseVector invariant whatever mode used the arena
      // last: the dense and non-hypersparse paths write rho's pattern
      // without keeping its values in step, so clearing only the stale
      // pattern could leave an earlier solve's row in the next BTRAN.
      a_.w.reset(m_);
      a_.rho.reset(m_);
    } else {
      w_.resize(m_);
    }
    if (tracks_cb_support()) rebuild_cb_support();
    pricing_ready_ = false;  // every phase starts from a fresh pricing pass
    while (true) {
      if (iters_ >= max_iters) return SolveStatus::IterationLimit;

      // Steepest edge's incremental pricing assumes a cost vector that
      // is constant across pivots; the composite bound phase 1 violates
      // that (its virtual costs follow the violations), and Bland's
      // termination guarantee needs exact reduced-cost signs. Both fall
      // back to the legacy recompute-every-iteration loop, as does the
      // Dantzig oracle by definition.
      const bool legacy =
          rule_ == Pricing::Dantzig || bound_phase1_ || use_bland_;
      int q = -1;
      bool increase = true;
      if (legacy) {
        compute_pricing_y();
        if (bound_phase1_ && !use_bland_ && rule_ != Pricing::Dantzig) {
          pick_entering_window(q, increase);
        } else {
          pick_entering_full(q, increase);
        }
      } else {
        if (!pricing_ready_) refresh_pricing();
        pick_entering_incremental(q, increase);
        if (q < 0 && !d_fresh_) {
          // Dry candidate list mid-phase: refill from cycling windows
          // of freshly recomputed reduced costs instead of paying a
          // full O(n) refresh. A fruitless full cycle sets d_fresh_ —
          // optimality confirmed off fresh values, same as a refresh.
          if (refill_candidates()) pick_entering_incremental(q, increase);
        }
        if (q < 0 && !d_fresh_) {
          // Confirmation pass: the maintained reduced costs carry
          // rounding drift, so optimality is only declared off a
          // freshly recomputed vector.
          refresh_pricing();
          pick_entering_incremental(q, increase);
        }
      }
      if (q < 0) return SolveStatus::Optimal;

      // FTRAN: w = B^{-1} A_q.
      if (hyper_) {
        a_.w.clear_support();
        for_each_in_column(q, [&](int row, double coef) {
          if (w_[row] == 0.0) w_nz_.push_back(row);
          w_[row] += coef;
        });
        const BasisLu::SolveStats hst =
            lu_.ftran_sparse(a_.w, hs_, kHypersparseCrossover);
        HyperObs& ho = hyper_obs();
        ho.ftran_reach.observe(
            hst.fallback ? 1.0 : static_cast<double>(hst.reach) / m_);
        if (hst.fallback) ho.ftran_fallbacks.inc();
      } else {
        std::fill(w_.begin(), w_.end(), 0.0);
        if (dense_) {
          for_each_in_column(q, [&](int row, double coef) {
            for (int i = 0; i < m_; ++i) w_[i] += binv_at(i, row) * coef;
          });
        } else {
          for_each_in_column(q, [&](int row, double coef) { w_[row] += coef; });
          lu_.ftran(w_);
        }
      }

      const double dir = increase ? 1.0 : -1.0;

      // Ratio test. The entering variable can move t >= 0 in direction
      // dir until (a) it reaches its own opposite bound, or (b) a basic
      // variable reaches one of its bounds. In the composite bound
      // phase 1 a basic *outside* its bounds blocks only when moving
      // back toward its violated bound (it stops there, where its +/-1
      // charge drops); moving further away it imposes no limit — the
      // pricing step only selects directions that shrink the total
      // violation.
      const double btol =
          bound_phase1_ ? kFeasTol * std::max(1.0, rhs_scale_) : 0.0;
      double t_best = kInf;
      int leave = -1;  // row index; -1 = entering flips to its other bound
      bool leave_upper = false;  // which bound the leaving basic rests at
      if (std::isfinite(lb_[q]) && std::isfinite(ub_[q])) t_best = ub_[q] - lb_[q];
      double leave_pivot = 0.0;
      // On the hypersparse path only w's support can block; its pattern
      // is ascending, so the tie-breaking scan order matches the dense
      // sweep (off-pattern entries are exact zeros the sweep skips).
      const int wn = hyper_ ? static_cast<int>(w_nz_.size()) : m_;
      for (int k = 0; k < wn; ++k) {
        const int i = hyper_ ? w_nz_[k] : k;
        const double delta = -dir * w_[i];  // d(x_B[i]) / dt
        if (std::fabs(delta) <= kPivotTol) continue;
        const int bvar = basis_[i];
        double limit = kInf;
        bool at_upper = false;
        if (bound_phase1_ && xb_[i] > ub_[bvar] + btol) {
          if (delta < 0.0) {
            limit = (ub_[bvar] - xb_[i]) / delta;
            at_upper = true;
          }
        } else if (bound_phase1_ && xb_[i] < lb_[bvar] - btol) {
          if (delta > 0.0) limit = (lb_[bvar] - xb_[i]) / delta;
        } else if (delta > 0.0) {
          if (std::isfinite(ub_[bvar])) {
            limit = (ub_[bvar] - xb_[i]) / delta;
            at_upper = true;
          }
        } else {
          if (std::isfinite(lb_[bvar])) limit = (lb_[bvar] - xb_[i]) / delta;
        }
        if (limit == kInf) continue;
        limit = std::max(limit, 0.0);  // clamp tolerance-level negatives
        // Prefer strictly smaller limits; on near-ties keep the row with
        // the largest pivot magnitude for numerical stability. The pivot
        // comparison carries the same relative margin as pricing so that
        // mathematically tied pivots resolve by row order, not by
        // factorization-dependent noise.
        if (limit < t_best - 1e-12 ||
            (limit < t_best + 1e-12 &&
             std::fabs(w_[i]) > std::fabs(leave_pivot) * (1.0 + kTieMargin))) {
          t_best = limit;
          leave = i;
          leave_pivot = w_[i];
          leave_upper = at_upper;
        }
      }

      if (t_best == kInf) {
        DLS_ASSERT(!in_phase1_);  // phase-1 objective is bounded below
        return SolveStatus::Unbounded;
      }

      ++iters_;
      if (t_best > 1e-10) {
        stall_ = 0;
      } else if (++stall_ > opt_.stall_limit) {
        use_bland_ = true;  // anti-cycling fallback; never switched back
      }

      // Apply the step to the basic values (only w's support moves, so
      // only those rows' bound-phase charges can change).
      if (hyper_) {
        const bool charges_move = bound_phase1_ && tracks_cb_support();
        for (const int i : w_nz_) {
          xb_[i] -= dir * t_best * w_[i];
          if (charges_move) update_cb_support(i);
        }
      } else {
        for (int i = 0; i < m_; ++i) xb_[i] -= dir * t_best * w_[i];
      }

      if (leave < 0) {
        // Bound flip: basis (and the reduced costs) unchanged.
        set_nonbasic_value(q, increase ? VarStatus::AtUpper : VarStatus::AtLower);
        continue;
      }

      // Pivot: q enters at row `leave`, the old basic leaves to the bound
      // it just reached.
      const int old_var = basis_[leave];
      set_nonbasic_value(old_var,
                         leave_upper ? VarStatus::AtUpper : VarStatus::AtLower);
      // An artificial that leaves the basis is pinned for good.
      if (old_var >= n_ + m_) {
        lb_[old_var] = ub_[old_var] = 0.0;
        set_nonbasic_value(old_var, VarStatus::AtLower);
      }
      const double enter_value = value_[q] + dir * t_best;
      basis_[leave] = q;
      status_[q] = VarStatus::Basic;
      xb_[leave] = enter_value;
      if (tracks_cb_support()) update_cb_support(leave);

      // Pricing update needs the pre-update factorization for its BTRAN.
      if (!legacy) update_pricing(q, old_var, leave, leave_pivot);

      if (dense_) {
        update_binv(leave, w_);
      } else if (hyper_ ? !lu_.update(leave, a_.w, kPivotTol)
                        : !lu_.update(leave, w_, kPivotTol)) {
        // The ratio test guarantees a usable pivot, so this is a pure
        // numerical-drift escape hatch: rebuild from the updated basis.
        if (!refactor_mid_phase()) return SolveStatus::NumericalError;
      }

      if (++pivots_since_refactor_ >= refactor_cap() || eta_fill_exceeded()) {
        if (!refactor_mid_phase()) return SolveStatus::NumericalError;
      }
    }
  }

  int refactor_cap() const {
    // Dense Gauss-Jordan rebuilds are O(m^3), so they are spaced out on
    // big bases. On the sparse path the fill trigger below is the
    // policy; the pivot count is only a numerical-drift backstop, scaled
    // to the basis size.
    return std::max(opt_.refactor_interval, dense_ ? m_ / 4 : m_);
  }

  /// Fill-based refactorization trigger: the eta file has outgrown
  /// refactor_fill times the base LU, so FTRAN/BTRAN now spend more time
  /// replaying etas than a rebuilt factorization would cost.
  bool eta_fill_exceeded() const {
    if (dense_) return false;
    return static_cast<double>(lu_.eta_nnz()) >
           opt_.refactor_fill *
               static_cast<double>(
                   std::max(lu_.base_nnz(), static_cast<std::size_t>(m_)));
  }

  /// Elementary row transformation of B^{-1} for a pivot in row r with
  /// FTRAN column w: row r scales by 1/w_r, other rows eliminate w_i.
  void update_binv(int r, const std::vector<double>& w) {
    const double piv = w[r];
    DLS_ASSERT(std::fabs(piv) > 0.0);
    double* prow = &binv_[static_cast<std::size_t>(r) * m_];
    const double inv = 1.0 / piv;
    for (int k = 0; k < m_; ++k) prow[k] *= inv;
    for (int i = 0; i < m_; ++i) {
      if (i == r || w[i] == 0.0) continue;
      const double f = w[i];
      double* irow = &binv_[static_cast<std::size_t>(i) * m_];
      for (int k = 0; k < m_; ++k) irow[k] -= f * prow[k];
    }
  }

  /// A refactorization inside iterate(): the recomputed xb_ restarts the
  /// incremental pricing and may move any bound-phase charge.
  bool refactor_mid_phase() {
    if (!refactor()) return false;
    pricing_ready_ = false;
    if (tracks_cb_support()) rebuild_cb_support();
    return true;
  }

  /// Rebuilds the basis factorization from scratch and recomputes the
  /// basic values, timing the whole rebuild once for
  /// Solution::refactor_seconds. Returns false on a singular basis.
  bool refactor() {
    const std::uint64_t start = now_ns();
    const bool ok = rebuild_factorization();
    refactor_ns_ += now_ns() - start;
    return ok;
  }

  /// refactor()'s body. SparseLu gathers the basic columns in CSC form
  /// and runs the Markowitz LU; DenseInverse runs the legacy
  /// Gauss-Jordan inversion.
  bool rebuild_factorization() {
    pivots_since_refactor_ = 0;
    ++refactor_count_;
    if (!dense_) {
      if (lu_.valid()) eta_peak_ = std::max(eta_peak_, lu_.eta_nnz());
      csc_ptr_.assign(m_ + 1, 0);
      csc_row_.clear();
      csc_val_.clear();
      for (int i = 0; i < m_; ++i) {
        for_each_in_column(basis_[i], [&](int row, double coef) {
          csc_row_.push_back(row);
          csc_val_.push_back(coef);
        });
        csc_ptr_[i + 1] = static_cast<int>(csc_row_.size());
      }
      if (!lu_.factorize(m_, csc_ptr_, csc_row_, csc_val_, a_.fs)) return false;
      recompute_basic_values();
      return true;
    }
    // Gather B (dense, column per basic variable).
    scratch_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      for_each_in_column(basis_[i],
                         [&](int row, double coef) { scratch_at(row, i) = coef; });
    }
    // Invert scratch into binv_.
    binv_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
    for (int i = 0; i < m_; ++i) binv_at(i, i) = 1.0;
    for (int col = 0; col < m_; ++col) {
      int piv_row = col;
      double piv_val = std::fabs(scratch_at(col, col));
      for (int i = col + 1; i < m_; ++i) {
        if (std::fabs(scratch_at(i, col)) > piv_val) {
          piv_val = std::fabs(scratch_at(i, col));
          piv_row = i;
        }
      }
      if (piv_val < 1e-12) return false;
      if (piv_row != col) {
        swap_rows(scratch_, piv_row, col);
        swap_rows(binv_, piv_row, col);
      }
      const double inv = 1.0 / scratch_at(col, col);
      for (int k = 0; k < m_; ++k) {
        scratch_at(col, k) *= inv;
        binv_at(col, k) *= inv;
      }
      for (int i = 0; i < m_; ++i) {
        if (i == col) continue;
        const double f = scratch_at(i, col);
        if (f == 0.0) continue;
        for (int k = 0; k < m_; ++k) {
          scratch_at(i, k) -= f * scratch_at(col, k);
          binv_at(i, k) -= f * binv_at(col, k);
        }
      }
    }
    recompute_basic_values();
    return true;
  }

  /// x_B = B^{-1} (b - N x_N) from the current factorization and
  /// nonbasic values.
  void recompute_basic_values() {
    r_ = b_;
    for (int j = 0; j < total_; ++j) {
      if (status_[j] == VarStatus::Basic || value_[j] == 0.0) continue;
      for_each_in_column(j, [&](int row, double coef) { r_[row] -= coef * value_[j]; });
    }
    if (!dense_) {
      lu_.ftran(r_);
      xb_.swap(r_);
      return;
    }
    for (int i = 0; i < m_; ++i) {
      double v = 0.0;
      const double* row = &binv_[static_cast<std::size_t>(i) * m_];
      for (int k = 0; k < m_; ++k) v += row[k] * r_[k];
      xb_[i] = v;
    }
  }

  void swap_rows(std::vector<double>& mat, int a, int bb) {
    double* ra = &mat[static_cast<std::size_t>(a) * m_];
    double* rb = &mat[static_cast<std::size_t>(bb) * m_];
    std::swap_ranges(ra, ra + m_, rb);
  }

  // ---- extraction --------------------------------------------------------

  Solution solve_unconstrained() {
    // No rows: each variable independently goes to its best bound.
    Solution sol;
    sol.x.assign(n_, 0.0);
    const double sign = model_.sense() == Sense::Maximize ? -1.0 : 1.0;
    for (int j = 0; j < n_; ++j) {
      const double c = sign * model_.objective_coef(j);
      if (c > 0.0) {
        if (!std::isfinite(lb_[j])) { sol.status = SolveStatus::Unbounded; return sol; }
        sol.x[j] = lb_[j];
      } else if (c < 0.0) {
        if (!std::isfinite(ub_[j])) { sol.status = SolveStatus::Unbounded; return sol; }
        sol.x[j] = ub_[j];
      } else {
        sol.x[j] = std::isfinite(lb_[j]) ? lb_[j] : (std::isfinite(ub_[j]) ? ub_[j] : 0.0);
      }
    }
    sol.status = SolveStatus::Optimal;
    sol.objective = model_.objective_value(sol.x);
    return sol;
  }

  void extract(Solution& sol) const {
    sol.x.assign(value_.begin(), value_.begin() + n_);
    for (int i = 0; i < m_; ++i)
      if (basis_[i] < n_) sol.x[basis_[i]] = xb_[i];
    // Snap solver noise onto the bounds so downstream validation is
    // clean. The comparisons are the ones std::max(x, lb) and
    // std::min(x, ub) make, so an infinite bound leaves x as it is
    // (NaN and signed zeros included) without a finiteness test.
    for (int j = 0; j < n_; ++j) {
      double v = sol.x[j];
      v = v < lb_[j] ? lb_[j] : v;
      v = ub_[j] < v ? ub_[j] : v;
      sol.x[j] = v;
    }
    if (sol.status == SolveStatus::Optimal) {
      // Indexed by VarStatus { Basic, AtLower, AtUpper, Free }.
      static constexpr BasisStatus kPublic[] = {
          BasisStatus::Basic, BasisStatus::AtLower, BasisStatus::AtUpper,
          BasisStatus::Free};
      const auto public_status = [&](int j) {
        return kPublic[static_cast<unsigned char>(status_[j])];
      };
      sol.basis.variables.resize(n_);
      sol.basis.slacks.resize(m_);
      for (int j = 0; j < n_; ++j) sol.basis.variables[j] = public_status(j);
      for (int i = 0; i < m_; ++i) sol.basis.slacks[i] = public_status(n_ + i);
      sol.objective = model_.objective_value(sol.x);
      if (opt_.compute_duals) {
        // Shadow prices: y = c_B' B^{-1} of the internal minimize form,
        // negated back for Maximize so duals are d(objective)/d(rhs).
        sol.duals.assign(m_, 0.0);
        if (dense_) {
          for (int i = 0; i < m_; ++i) {
            const double cb = cost_[basis_[i]];
            if (cb == 0.0) continue;
            const double* row = &binv_[static_cast<std::size_t>(i) * m_];
            for (int k = 0; k < m_; ++k) sol.duals[k] += cb * row[k];
          }
        } else {
          for (int i = 0; i < m_; ++i) sol.duals[i] = cost_[basis_[i]];
          lu_.btran(sol.duals);
        }
        if (model_.sense() == Sense::Maximize)
          for (double& d : sol.duals) d = -d;
      }
    }
  }

  double& binv_at(int i, int j) { return binv_[static_cast<std::size_t>(i) * m_ + j]; }
  double binv_at(int i, int j) const { return binv_[static_cast<std::size_t>(i) * m_ + j]; }
  double& scratch_at(int i, int j) { return scratch_[static_cast<std::size_t>(i) * m_ + j]; }

  const Model& model_;
  const SimplexOptions& opt_;
  detail::ArenaImpl& a_;

  // Arena-backed buffers (aliases keep the solver body readable).
  std::vector<double>& lb_;
  std::vector<double>& ub_;
  std::vector<double>& cost_;
  std::vector<double>& b_;
  std::vector<double>& art_sign_;
  std::vector<VarStatus>& status_;
  std::vector<double>& value_;  // nonbasic resting values (basics in xb_)
  std::vector<double>& xb_;
  std::vector<int>& basis_;
  BasisLu& lu_;                          // sparse path
  std::vector<int>& csc_ptr_;            // basis-gather scratch (sparse path)
  std::vector<int>& csc_row_;
  std::vector<double>& csc_val_;
  std::vector<double>& binv_;            // dense path
  std::vector<double>& scratch_;
  std::vector<double>& y_;       // pricing multipliers (arena.y.values)
  std::vector<int>& y_nz_;       // c_B's support on the sparse route (arena.y.pattern)
  std::vector<double>& w_;       // FTRAN image values (arena.w.values)
  std::vector<int>& w_nz_;       // its support when hyper_ (arena.w.pattern)
  std::vector<double>& rho_;     // pricing row values (arena.rho.values)
  std::vector<int>& rho_nz_;     // its support (arena.rho.pattern)
  std::vector<double>& r_;
  SolveScratch& hs_;             // hypersparse reach-set workspace
  std::vector<double>& d_;       // incremental reduced costs
  std::vector<double>& weights_; // Devex reference weights
  std::vector<double>& alpha_;   // pivot-row scatter (kept all-zero between uses)
  std::vector<int>& cand_;       // steepest-edge candidate list
  std::vector<int>& touched_;
  std::vector<int>& movable_;    // non-fixed structural + slack columns
  std::vector<char>& in_cand_;
  std::vector<int>& cb_rows_;    // c_B's support, unordered (hypersparse route)
  std::vector<int>& cb_pos_;     // row -> position in cb_rows_, else -1

  const detail::ColumnCache* cols_ = nullptr;
  bool cache_hit_ = false;

  bool dense_ = false;  ///< Factorization::DenseInverse baseline path
  bool hyper_ = false;  ///< reach-set basis solves on the sparse path
  Pricing rule_ = Pricing::SteepestEdge;
  int n_ = 0, m_ = 0, total_ = 0;
  int window_ = 0;           ///< columns per windowed scan (phase 1, refill)
  int phase1_cursor_ = 0;    ///< cycling cursor of the phase-1 window scan
  int refill_cursor_ = 0;    ///< cycling cursor of the candidate refill scan

  double rhs_scale_ = 1.0;
  std::uint64_t fingerprint_ = 0;
  bool need_phase1_ = false;
  bool in_phase1_ = false;
  bool bound_phase1_ = false;      ///< composite flavor: basics carry violation
  bool warm_infeasible_ = false;   ///< warm restore left basics out of bounds
  bool use_bland_ = false;
  bool pricing_ready_ = false;     ///< incremental d_/weights_ initialized
  bool d_fresh_ = false;           ///< d_ recomputed since the last pivot
  bool weight_overflow_ = false;
  bool pricing_fell_back_ = false; ///< a pricing BTRAN of this solve fell back
  bool y_sparse_ = false;          ///< arena.y keeps the SparseVector invariant
  int iters_ = 0, stall_ = 0, pivots_since_refactor_ = 0;
  int refactor_count_ = 0;
  std::uint64_t refactor_ns_ = 0;
  std::uint64_t pricing_y_ns_ = 0;
  int refresh_count_ = 0;
  std::size_t eta_peak_ = 0;
};

}  // namespace

std::size_t WarmState::memory_bytes() const {
  return basis.variables.size() * sizeof(BasisStatus) +
         basis.slacks.size() * sizeof(BasisStatus) +
         basic_vars.size() * sizeof(int) + lu.memory_bytes() + sizeof(*this);
}

std::shared_ptr<const detail::ColumnCache> ColumnCacheStore::find(
    std::uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = caches_.find(fingerprint);
  if (it == caches_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

void ColumnCacheStore::insert(std::shared_ptr<const detail::ColumnCache> cache) {
  if (!cache) return;
  std::lock_guard<std::mutex> lock(mutex_);
  caches_.emplace(cache->fingerprint, std::move(cache));
}

std::size_t ColumnCacheStore::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t ColumnCacheStore::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

SolveArena::SolveArena() : impl_(std::make_unique<detail::ArenaImpl>()) {}

SolveArena::SolveArena(std::shared_ptr<ColumnCacheStore> store)
    : impl_(std::make_unique<detail::ArenaImpl>()) {
  impl_->store = std::move(store);
}

SolveArena::~SolveArena() = default;
SolveArena::SolveArena(SolveArena&&) noexcept = default;
SolveArena& SolveArena::operator=(SolveArena&&) noexcept = default;

namespace {

// Every solve funnels through SimplexSolver::solve below, so this is
// the one place the lp layer reports to obs. Handles are resolved
// once; each record is a handful of relaxed atomics on the calling
// thread's shard.
struct LpObs {
  obs::Counter cold, warm, repaired;
  obs::Counter pivots, refactorizations;
  obs::Histogram seconds;
  LpObs() {
    auto& reg = obs::registry();
    const std::string solves = "dls_lp_solves_total";
    const std::string solves_help = "Simplex solves by start kind";
    cold = reg.counter(solves, solves_help, "start=\"cold\"");
    warm = reg.counter(solves, solves_help, "start=\"warm\"");
    repaired = reg.counter(solves, solves_help, "start=\"repaired\"");
    pivots = reg.counter("dls_lp_pivots_total", "Simplex pivots across all solves");
    refactorizations = reg.counter("dls_lp_refactorizations_total",
                                   "Basis refactorizations across all solves");
    seconds = reg.histogram("dls_lp_solve_seconds", "Wall time per simplex solve",
                            obs::default_time_buckets());
  }
};

void record_solve(const Solution& solution, double seconds) {
  static LpObs handles;
  hyper_obs();  // register the hypersparse series even on dense-path solves
  switch (solution.warm_kind) {
    case WarmKind::Cold: handles.cold.inc(); break;
    case WarmKind::Capsule: handles.warm.inc(); break;
    case WarmKind::Basis: handles.repaired.inc(); break;
  }
  handles.pivots.inc(static_cast<std::uint64_t>(solution.iterations));
  handles.refactorizations.inc(
      static_cast<std::uint64_t>(solution.refactorizations));
  handles.seconds.observe(seconds);
}

}  // namespace

Solution SimplexSolver::solve(const Model& model, WarmState* state,
                              SolveArena* arena) const {
  if (arena == nullptr) {
    SolveArena fresh;
    return solve(model, state, &fresh);
  }
  WallTimer timer;
  Worker worker(model, options_, arena->impl());
  Solution solution = worker.run(state);
  record_solve(solution, timer.seconds());
  return solution;
}

}  // namespace dls::lp
