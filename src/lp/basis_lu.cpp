#include "lp/basis_lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace dls::lp {

namespace {

/// Relative stability threshold for Markowitz pivot candidates: an entry
/// competes only when its magnitude reaches this fraction of the largest
/// magnitude in its column (classical threshold pivoting, u = 0.1 keeps
/// growth bounded without forcing the dense partial-pivoting order).
constexpr double kThreshold = 0.1;

/// How many minimum-count columns to examine per pivot choice. The
/// Markowitz cost is monotone in the column count, so candidates beyond
/// the first few smallest columns cannot win by much; bounding the
/// window keeps the cost evaluation at kCandidateCols column scans per
/// elimination step. Choosing the window is one sweep of the active
/// columns (O(active), not O(m): finished columns are compacted out).
constexpr int kCandidateCols = 8;

/// Free room a column slice or row pattern starts with beyond its
/// initial entries, so the first fill-ins land in place.
constexpr int kSlack = 4;

/// Grows a pool so [0, need) is addressable; capacity only ever grows,
/// so a reused scratch stops allocating once it has seen its largest
/// basis.
template <typename T>
void fit_pool(std::vector<T>& pool, int need) {
  if (static_cast<int>(pool.size()) < need)
    pool.resize(std::max(2 * pool.size(), static_cast<std::size_t>(need)));
}

/// Appends (i, v) to column j, first moving a full column to the pool's
/// end with doubled capacity (its old room stays unused until the next
/// factorize()). Entry order within the column is preserved.
void push_col_entry(FactorScratch& s, int j, int i, double v) {
  if (s.col_len[j] == s.col_cap[j]) {
    const int from = s.col_start[j], to = s.col_end, len = s.col_len[j];
    const int cap = 2 * len + kSlack;
    fit_pool(s.col_row, to + cap);
    fit_pool(s.col_val, to + cap);
    std::copy_n(s.col_row.begin() + from, len, s.col_row.begin() + to);
    std::copy_n(s.col_val.begin() + from, len, s.col_val.begin() + to);
    s.col_start[j] = to;
    s.col_cap[j] = cap;
    s.col_end = to + cap;
  }
  const int at = s.col_start[j] + s.col_len[j]++;
  s.col_row[at] = i;
  s.col_val[at] = v;
}

/// Appends column j to row i's pattern; same relocation rule.
void push_row_entry(FactorScratch& s, int i, int j) {
  if (s.row_len[i] == s.row_cap[i]) {
    const int from = s.row_start[i], to = s.row_end, len = s.row_len[i];
    const int cap = 2 * len + kSlack;
    fit_pool(s.row_col, to + cap);
    std::copy_n(s.row_col.begin() + from, len, s.row_col.begin() + to);
    s.row_start[i] = to;
    s.row_cap[i] = cap;
    s.row_end = to + cap;
  }
  s.row_col[s.row_start[i] + s.row_len[i]++] = j;
}

/// Loads the m x m CSC matrix into `s` as the initial active submatrix:
/// each column keeps the input order (exact zeros dropped), each row
/// pattern lists its columns ascending, and every finished-column and
/// marker array is reset.
void load_active(int m, std::span<const int> col_ptr, std::span<const int> rows,
                 std::span<const double> values, FactorScratch& s) {
  const auto um = static_cast<std::size_t>(m);
  s.col_start.resize(um);
  s.col_len.resize(um);
  s.col_cap.resize(um);
  s.row_start.resize(um);
  s.row_len.resize(um);
  s.row_cap.resize(um);
  s.row_count.assign(um, 0);
  for (int j = 0; j < m; ++j) {
    int len = 0;
    for (int p = col_ptr[j]; p < col_ptr[j + 1]; ++p) {
      if (values[p] == 0.0) continue;
      ++len;
      ++s.row_count[rows[p]];
    }
    s.col_len[j] = len;
  }
  s.col_end = 0;
  for (int j = 0; j < m; ++j) {
    s.col_start[j] = s.col_end;
    s.col_cap[j] = s.col_len[j] + kSlack;
    s.col_end += s.col_cap[j];
  }
  s.row_end = 0;
  for (int i = 0; i < m; ++i) {
    s.row_start[i] = s.row_end;
    s.row_len[i] = 0;
    s.row_cap[i] = s.row_count[i] + kSlack;
    s.row_end += s.row_cap[i];
  }
  fit_pool(s.col_row, s.col_end);
  fit_pool(s.col_val, s.col_end);
  fit_pool(s.row_col, s.row_end);

  // l_pos doubles as a "last column seen" mark per row here, which
  // catches a row repeated within one column (the Schur update's marker
  // lookup assumes there is none).
  s.l_pos.assign(um, -1);
  for (int j = 0; j < m; ++j) {
    int at = s.col_start[j];
    for (int p = col_ptr[j]; p < col_ptr[j + 1]; ++p) {
      const double v = values[p];
      if (v == 0.0) continue;
      const int i = rows[p];
      DLS_ASSERT(s.l_pos[i] != j);
      s.l_pos[i] = j;
      s.col_row[at] = i;
      s.col_val[at] = v;
      ++at;
      s.row_col[s.row_start[i] + s.row_len[i]++] = j;
    }
  }
  std::fill(s.l_pos.begin(), s.l_pos.end(), -1);
  s.l_hit.assign(um, 0);
  s.col_done.assign(um, 0);
  s.active.resize(um);
  for (int j = 0; j < m; ++j) s.active[j] = j;
  s.singletons.clear();
}

}  // namespace

void BasisLu::clear() {
  m_ = 0;
  pivot_row_.clear();
  pivot_col_.clear();
  pivot_val_.clear();
  l_start_.clear();
  l_row_.clear();
  l_val_.clear();
  u_start_.clear();
  u_col_.clear();
  u_val_.clear();
  row_to_step_.clear();
  col_to_step_.clear();
  ut_start_.clear();
  ut_step_.clear();
  lt_start_.clear();
  lt_step_.clear();
  eta_start_.clear();
  eta_pos_.clear();
  eta_val_.clear();
  eta_pivot_pos_.clear();
  eta_pivot_val_.clear();
}

bool BasisLu::factorize(int m, std::span<const int> col_ptr,
                        std::span<const int> rows, std::span<const double> values,
                        FactorScratch& s, double abs_pivot_tol) {
  clear();
  DLS_ASSERT(static_cast<int>(col_ptr.size()) == m + 1);
  load_active(m, col_ptr, rows, values, s);

  pivot_row_.reserve(m);
  pivot_col_.reserve(m);
  pivot_val_.reserve(m);
  l_start_.reserve(m + 1);
  l_start_.push_back(0);
  u_start_.reserve(m + 1);
  u_start_.push_back(0);

  // Singleton-column fast path: a column with one active entry has
  // Markowitz cost (r-1)*0 = 0, the global minimum, and eliminating it
  // produces no fill. Simplex bases are largely triangularizable (slack
  // columns and the fronts they open), so most pivots come from this
  // stack in O(1) instead of a column scan. Lazily validated on pop.
  for (int j = 0; j < m; ++j)
    if (s.col_len[j] == 1) s.singletons.push_back(j);

  for (int step = 0; step < m; ++step) {
    int best_row = -1, best_col = -1;
    double best_val = 0.0;
    while (!s.singletons.empty()) {
      const int j = s.singletons.back();
      s.singletons.pop_back();
      if (s.col_done[j] || s.col_len[j] != 1) continue;  // stale entry
      const double v = s.col_val[s.col_start[j]];
      if (std::fabs(v) < abs_pivot_tol) break;  // too small: full scan decides
      best_row = s.col_row[s.col_start[j]];
      best_col = j;
      best_val = v;
      break;
    }

    if (best_col < 0) {
      // ---- Markowitz pivot selection ------------------------------------
      // Scan the kCandidateCols smallest active columns; within each,
      // only entries above the stability threshold compete. Cost
      // estimate is the classical (row_count-1)*(col_count-1) fill bound.
      // A column whose largest entry reaches abs_pivot_tol always offers
      // that entry, so a window with no candidate lies wholly below the
      // absolute tolerance: the basis is numerically singular, and no
      // looser threshold could admit anything there.
      long long best_cost = std::numeric_limits<long long>::max();
      // One ascending sweep of the active list keeps the kCandidateCols
      // smallest columns by (count, index) — insertion into a fixed-size
      // window — and drops finished columns from the list as it goes.
      int order[kCandidateCols];
      int filled = 0;
      std::size_t kept = 0;
      for (std::size_t a = 0; a < s.active.size(); ++a) {
        const int j = s.active[a];
        if (s.col_done[j]) continue;
        s.active[kept++] = j;
        const int count = s.col_len[j];
        int pos = filled;
        while (pos > 0 && s.col_len[order[pos - 1]] > count) --pos;
        if (pos >= kCandidateCols) continue;
        if (filled < kCandidateCols) ++filled;
        for (int t = filled - 1; t > pos; --t) order[t] = order[t - 1];
        order[pos] = j;
      }
      s.active.resize(kept);
      for (int o = 0; o < filled; ++o) {
        const int j = order[o];
        const int count = s.col_len[j];
        if (count == 0) return false;  // structurally singular
        const int* cr = s.col_row.data() + s.col_start[j];
        const double* cv = s.col_val.data() + s.col_start[j];
        double colmax = 0.0;
        for (int p = 0; p < count; ++p) colmax = std::max(colmax, std::fabs(cv[p]));
        const double accept = std::max(kThreshold * colmax, abs_pivot_tol);
        for (int p = 0; p < count; ++p) {
          const int i = cr[p];
          const double v = cv[p];
          if (std::fabs(v) < accept) continue;
          const long long cost = static_cast<long long>(s.row_count[i] - 1) *
                                 static_cast<long long>(count - 1);
          if (cost < best_cost ||
              (cost == best_cost && std::fabs(v) > std::fabs(best_val))) {
            best_cost = cost;
            best_row = i;
            best_col = j;
            best_val = v;
          }
        }
      }
      if (best_col < 0) return false;  // numerically singular
    }

    const int pr = best_row, pc = best_col;
    const double pval = best_val;
    s.col_done[pc] = 1;
    pivot_row_.push_back(pr);
    pivot_col_.push_back(pc);
    pivot_val_.push_back(pval);

    // ---- L column: multipliers from the pivot column --------------------
    // l_pos marks each L row with its position for the Schur update.
    const int lbeg = l_start_[step];
    for (int p = s.col_start[pc], e = p + s.col_len[pc]; p < e; ++p) {
      const int i = s.col_row[p];
      if (i == pr) continue;
      s.l_pos[i] = static_cast<int>(l_row_.size()) - lbeg;
      l_row_.push_back(i);
      l_val_.push_back(s.col_val[p] / pval);
      --s.row_count[i];
    }
    const int lend = static_cast<int>(l_row_.size());
    l_start_.push_back(lend);
    s.col_len[pc] = 0;

    // ---- U row: remove row pr from the other active columns -------------
    // In row-pattern order; each removal swaps the column's last entry
    // into the hole.
    const int ubeg = u_start_[step];
    for (int q = s.row_start[pr], qe = q + s.row_len[pr]; q < qe; ++q) {
      const int j = s.row_col[q];
      if (s.col_done[j]) continue;
      const int first = s.col_start[j], last = first + s.col_len[j] - 1;
      for (int p = first; p <= last; ++p) {
        if (s.col_row[p] != pr) continue;
        u_col_.push_back(j);
        u_val_.push_back(s.col_val[p]);
        s.col_row[p] = s.col_row[last];
        s.col_val[p] = s.col_val[last];
        if (--s.col_len[j] == 1) s.singletons.push_back(j);
        break;
      }
    }
    s.row_len[pr] = 0;
    const int uend = static_cast<int>(u_col_.size());
    u_start_.push_back(uend);

    // ---- Schur update: cols[j] -= l * u_j for every U entry -------------
    // Entries already in column j are updated where they sit (found via
    // l_pos); the L rows column j lacks become fill, appended in L order.
    // A pivot column with no other entry (most simplex pivots) has an
    // empty L and changes nothing.
    if (lend == lbeg) continue;
    for (int q = ubeg; q < uend; ++q) {
      const int j = u_col_[q];
      const double u = u_val_[q];
      for (int p = s.col_start[j], e = p + s.col_len[j]; p < e; ++p) {
        const int k = s.l_pos[s.col_row[p]];
        if (k < 0) continue;
        const double delta = l_val_[lbeg + k] * u;
        s.col_val[p] -= delta;
        s.l_hit[k] = 1;
      }
      for (int k = 0; k < lend - lbeg; ++k) {
        if (s.l_hit[k]) {
          s.l_hit[k] = 0;
          continue;
        }
        const double delta = l_val_[lbeg + k] * u;
        if (delta == 0.0) continue;
        const int i = l_row_[lbeg + k];
        push_col_entry(s, j, i, -delta);
        push_row_entry(s, i, j);
        ++s.row_count[i];
      }
    }
    for (int p = lbeg; p < lend; ++p) s.l_pos[l_row_[p]] = -1;
  }

  m_ = m;
  eta_start_.push_back(0);
  work_.assign(m, 0.0);
  build_solve_graphs();
  return true;
}

void BasisLu::build_solve_graphs() {
  row_to_step_.resize(m_);
  col_to_step_.resize(m_);
  for (int t = 0; t < m_; ++t) {
    row_to_step_[pivot_row_[t]] = t;
    col_to_step_[pivot_col_[t]] = t;
  }
  // U transposed by basis slot: for each slot, the (earlier) steps whose
  // U row references it — the reverse dependencies of the FTRAN back
  // substitution. Counting sort into CSR; the +2 offset leaves the
  // filled cursors as the final start array.
  ut_start_.assign(m_ + 2, 0);
  for (const int c : u_col_) ++ut_start_[c + 2];
  for (int i = 2; i < m_ + 2; ++i) ut_start_[i] += ut_start_[i - 1];
  ut_step_.resize(u_col_.size());
  for (int t = 0; t < m_; ++t)
    for (int p = u_start_[t]; p < u_start_[t + 1]; ++p)
      ut_step_[ut_start_[u_col_[p] + 1]++] = t;
  ut_start_.pop_back();
  // L transposed by row: for each row, the (earlier) steps whose L
  // column scatters into it — the reverse dependencies of the BTRAN
  // backward pass.
  lt_start_.assign(m_ + 2, 0);
  for (const int i : l_row_) ++lt_start_[i + 2];
  for (int i = 2; i < m_ + 2; ++i) lt_start_[i] += lt_start_[i - 1];
  lt_step_.resize(l_row_.size());
  for (int t = 0; t < m_; ++t)
    for (int p = l_start_[t]; p < l_start_[t + 1]; ++p)
      lt_step_[lt_start_[l_row_[p] + 1]++] = t;
  lt_start_.pop_back();
}

void BasisLu::ftran_l_dense(std::vector<double>& x) const {
  // Forward elimination: apply the L operations in pivot order.
  for (int t = 0; t < m_; ++t) {
    const double v = x[pivot_row_[t]];
    if (v == 0.0) continue;
    for (int p = l_start_[t]; p < l_start_[t + 1]; ++p) x[l_row_[p]] -= l_val_[p] * v;
  }
}

void BasisLu::ftran_u_dense(std::vector<double>& x) const {
  // Back substitution into slot space.
  work_.resize(m_);
  for (int t = m_ - 1; t >= 0; --t) {
    double v = x[pivot_row_[t]];
    for (int p = u_start_[t]; p < u_start_[t + 1]; ++p)
      v -= u_val_[p] * work_[u_col_[p]];
    work_[pivot_col_[t]] = v / pivot_val_[t];
  }
  x.swap(work_);
}

void BasisLu::ftran_eta_dense(std::vector<double>& x) const {
  // Eta file, oldest first: x <- E^{-1} x per update.
  const int etas = eta_count();
  for (int e = 0; e < etas; ++e) {
    const int r = eta_pivot_pos_[e];
    const double xr = x[r] / eta_pivot_val_[e];
    if (xr != 0.0) {
      for (int p = eta_start_[e]; p < eta_start_[e + 1]; ++p)
        x[eta_pos_[p]] -= eta_val_[p] * xr;
    }
    x[r] = xr;
  }
}

void BasisLu::ftran(std::vector<double>& x) const {
  DLS_ASSERT(valid() && static_cast<int>(x.size()) == m_);
  ftran_l_dense(x);
  ftran_u_dense(x);
  ftran_eta_dense(x);
}

void BasisLu::btran_eta_dense(std::vector<double>& y) const {
  // Eta file transposed, newest first: solve E' z = y per update.
  for (int e = eta_count() - 1; e >= 0; --e) {
    const int r = eta_pivot_pos_[e];
    double acc = y[r];
    for (int p = eta_start_[e]; p < eta_start_[e + 1]; ++p)
      acc -= eta_val_[p] * y[eta_pos_[p]];
    y[r] = acc / eta_pivot_val_[e];
  }
}

void BasisLu::btran_ul_dense(std::vector<double>& y) const {
  // U' forward pass (slot space in, row space out), updates scattered
  // eagerly so each pivot's value is final when visited.
  work_.assign(m_, 0.0);
  for (int t = 0; t < m_; ++t) {
    const double v = y[pivot_col_[t]] / pivot_val_[t];
    work_[pivot_row_[t]] = v;
    if (v == 0.0) continue;
    for (int p = u_start_[t]; p < u_start_[t + 1]; ++p) y[u_col_[p]] -= u_val_[p] * v;
  }
  // L' backward pass.
  for (int t = m_ - 1; t >= 0; --t) {
    double acc = 0.0;
    for (int p = l_start_[t]; p < l_start_[t + 1]; ++p)
      acc += l_val_[p] * work_[l_row_[p]];
    work_[pivot_row_[t]] -= acc;
  }
  y.swap(work_);
}

void BasisLu::btran(std::vector<double>& y) const {
  DLS_ASSERT(valid() && static_cast<int>(y.size()) == m_);
  btran_eta_dense(y);
  btran_ul_dense(y);
}

void BasisLu::rebuild_pattern(std::vector<double>& v,
                              std::vector<int>& pattern) const {
  pattern.clear();
  for (int i = 0; i < m_; ++i) {
    if (v[i] != 0.0)
      pattern.push_back(i);
    else
      v[i] = 0.0;  // normalize -0.0 structural zeros of the dense passes
  }
}

BasisLu::SolveStats BasisLu::ftran_sparse(SparseVector& x, SolveScratch& ws,
                                          double crossover) const {
  DLS_ASSERT(valid() && static_cast<int>(x.values.size()) == m_);
  ws.ensure(m_);
  SolveStats st;
  const int limit = static_cast<int>(crossover * m_);
  auto& v = x.values;
  auto& pat = x.pattern;

  // ---- L pass: symbolic flood over steps from the rhs rows --------------
  // An L scatter at step t only reaches rows eliminated later, so the
  // dependency graph is acyclic with ascending step order a topological
  // order — processing the sorted reach reproduces the dense loop's
  // operation sequence exactly.
  auto& reach = ws.reach_a;
  auto& stack = ws.stack;
  reach.clear();
  stack.clear();
  bool give_up = static_cast<int>(pat.size()) > limit;
  if (!give_up) {
    const int stamp = ws.bump();
    for (const int i : pat) {
      const int s = row_to_step_[i];
      if (ws.mark[s] == stamp) continue;
      ws.mark[s] = stamp;
      reach.push_back(s);
      stack.push_back(s);
    }
    while (!stack.empty()) {
      const int t = stack.back();
      stack.pop_back();
      for (int p = l_start_[t]; p < l_start_[t + 1]; ++p) {
        const int s = row_to_step_[l_row_[p]];
        if (ws.mark[s] == stamp) continue;
        ws.mark[s] = stamp;
        reach.push_back(s);
        stack.push_back(s);
      }
      if (static_cast<int>(reach.size()) > limit) {
        give_up = true;
        break;
      }
    }
  }
  if (give_up) {
    ftran_l_dense(v);
    ftran_u_dense(v);
    ftran_eta_dense(v);
    rebuild_pattern(v, pat);
    st.reach = m_;
    st.fallback = true;
    return st;
  }
  std::sort(reach.begin(), reach.end());
  for (const int t : reach) {
    const double xv = v[pivot_row_[t]];
    if (xv == 0.0) continue;  // same guard as the dense loop
    for (int p = l_start_[t]; p < l_start_[t + 1]; ++p)
      v[l_row_[p]] -= l_val_[p] * xv;
  }
  st.reach = static_cast<int>(reach.size());

  // ---- U pass: reverse reachability from the L reach --------------------
  // Step t's output depends on slots pivoted later, so activity flows
  // backwards: an active step activates every earlier step whose U row
  // references its slot (the ut_* transpose).
  auto& ureach = ws.reach_b;
  ureach.clear();
  const int ustamp = ws.bump();
  for (const int s : reach) {
    ws.mark[s] = ustamp;
    ureach.push_back(s);
    stack.push_back(s);
  }
  while (!stack.empty()) {
    const int t = stack.back();
    stack.pop_back();
    const int c = pivot_col_[t];
    for (int p = ut_start_[c]; p < ut_start_[c + 1]; ++p) {
      const int s = ut_step_[p];
      if (ws.mark[s] == ustamp) continue;
      ws.mark[s] = ustamp;
      ureach.push_back(s);
      stack.push_back(s);
    }
    if (static_cast<int>(ureach.size()) > limit) {
      give_up = true;
      break;
    }
  }
  if (give_up) {
    ftran_u_dense(v);
    ftran_eta_dense(v);
    rebuild_pattern(v, pat);
    st.reach = m_;
    st.fallback = true;
    return st;
  }
  std::sort(ureach.begin(), ureach.end());
  auto& work = ws.work;  // all-zero between solves
  for (int k = static_cast<int>(ureach.size()) - 1; k >= 0; --k) {
    const int t = ureach[k];
    double acc = v[pivot_row_[t]];
    for (int p = u_start_[t]; p < u_start_[t + 1]; ++p)
      acc -= u_val_[p] * work[u_col_[p]];
    work[pivot_col_[t]] = acc / pivot_val_[t];
  }
  st.reach = std::max(st.reach, static_cast<int>(ureach.size()));
  // Gather into slot space: clear the consumed row support, move the
  // reached slots out of the scratch (restoring its zeros), and start
  // the result pattern. Pivot columns are a permutation, so the reached
  // slots are distinct.
  for (const int t : reach) v[pivot_row_[t]] = 0.0;
  pat.clear();
  const int sstamp = ws.bump();
  for (const int t : ureach) {
    const int c = pivot_col_[t];
    v[c] = work[c];
    work[c] = 0.0;
    ws.mark[c] = sstamp;
    pat.push_back(c);
  }

  // ---- eta pass: sequential scan with an O(1) support guard -------------
  // Any eta may touch the support, so the file is scanned in order; a
  // pivot position off the support skips in O(1) (the dense loop writes
  // a structural +/-0 there, never a value).
  const int etas = eta_count();
  for (int e = 0; e < etas; ++e) {
    const int r = eta_pivot_pos_[e];
    const double vr = v[r];
    if (vr == 0.0) continue;
    const double xr = vr / eta_pivot_val_[e];
    if (xr != 0.0) {
      for (int p = eta_start_[e]; p < eta_start_[e + 1]; ++p) {
        const int c = eta_pos_[p];
        v[c] -= eta_val_[p] * xr;
        if (ws.mark[c] != sstamp) {
          ws.mark[c] = sstamp;
          pat.push_back(c);
        }
      }
    }
    v[r] = xr;
  }

  // Exact nonzeros only, ascending — the contract every consumer of the
  // pattern (ratio test order, pricing cost decision) relies on.
  int keep = 0;
  for (const int c : pat) {
    if (v[c] != 0.0)
      pat[keep++] = c;
    else
      v[c] = 0.0;  // exact cancellation: normalize any -0.0
  }
  pat.resize(keep);
  std::sort(pat.begin(), pat.end());
  return st;
}

BasisLu::SolveStats BasisLu::btran_sparse(SparseVector& y, SolveScratch& ws,
                                          double crossover) const {
  DLS_ASSERT(valid() && static_cast<int>(y.values.size()) == m_);
  ws.ensure(m_);
  SolveStats st;
  const int limit = static_cast<int>(crossover * m_);
  auto& v = y.values;
  auto& pat = y.pattern;
  if (static_cast<int>(pat.size()) > limit) {
    btran_eta_dense(v);
    btran_ul_dense(v);
    rebuild_pattern(v, pat);
    st.reach = m_;
    st.fallback = true;
    return st;
  }

  // ---- eta transpose pass (newest first) over the tracked support -------
  // An eta participates only when its pivot slot or one of its scatter
  // positions is already in the support; otherwise the dense loop would
  // compute a structural zero for it.
  const int sstamp = ws.bump();
  for (const int c : pat) ws.mark[c] = sstamp;
  for (int e = eta_count() - 1; e >= 0; --e) {
    const int r = eta_pivot_pos_[e];
    bool member = ws.mark[r] == sstamp;
    for (int p = eta_start_[e]; p < eta_start_[e + 1] && !member; ++p)
      member = ws.mark[eta_pos_[p]] == sstamp;
    if (!member) continue;
    double acc = v[r];
    for (int p = eta_start_[e]; p < eta_start_[e + 1]; ++p)
      acc -= eta_val_[p] * v[eta_pos_[p]];
    v[r] = acc / eta_pivot_val_[e];
    if (ws.mark[r] != sstamp) {
      ws.mark[r] = sstamp;
      pat.push_back(r);
    }
  }

  // ---- U' pass: forward flood from the rhs slots ------------------------
  auto& ureach = ws.reach_a;
  auto& stack = ws.stack;
  ureach.clear();
  stack.clear();
  bool give_up = static_cast<int>(pat.size()) > limit;
  if (!give_up) {
    const int ustamp = ws.bump();
    for (const int c : pat) {
      const int s = col_to_step_[c];
      if (ws.mark[s] == ustamp) continue;
      ws.mark[s] = ustamp;
      ureach.push_back(s);
      stack.push_back(s);
    }
    while (!stack.empty()) {
      const int t = stack.back();
      stack.pop_back();
      for (int p = u_start_[t]; p < u_start_[t + 1]; ++p) {
        const int s = col_to_step_[u_col_[p]];
        if (ws.mark[s] == ustamp) continue;
        ws.mark[s] = ustamp;
        ureach.push_back(s);
        stack.push_back(s);
      }
      if (static_cast<int>(ureach.size()) > limit) {
        give_up = true;
        break;
      }
    }
  }
  if (give_up) {
    btran_ul_dense(v);
    rebuild_pattern(v, pat);
    st.reach = m_;
    st.fallback = true;
    return st;
  }
  std::sort(ureach.begin(), ureach.end());
  auto& work = ws.work;
  for (const int t : ureach) {
    const double uv = v[pivot_col_[t]] / pivot_val_[t];
    work[pivot_row_[t]] = uv;
    if (uv == 0.0) continue;  // same guard as the dense loop
    for (int p = u_start_[t]; p < u_start_[t + 1]; ++p)
      v[u_col_[p]] -= u_val_[p] * uv;
  }
  st.reach = static_cast<int>(ureach.size());

  // ---- L' pass: reverse reachability from the U' reach ------------------
  // Step t reads rows owned by later steps, so activity flows backwards
  // through the lt_* transpose.
  auto& lreach = ws.reach_b;
  lreach.clear();
  const int lstamp = ws.bump();
  for (const int s : ureach) {
    ws.mark[s] = lstamp;
    lreach.push_back(s);
    stack.push_back(s);
  }
  while (!stack.empty()) {
    const int t = stack.back();
    stack.pop_back();
    const int row = pivot_row_[t];
    for (int p = lt_start_[row]; p < lt_start_[row + 1]; ++p) {
      const int s = lt_step_[p];
      if (ws.mark[s] == lstamp) continue;
      ws.mark[s] = lstamp;
      lreach.push_back(s);
      stack.push_back(s);
    }
    if (static_cast<int>(lreach.size()) > limit) {
      give_up = true;
      break;
    }
  }
  if (give_up) {
    // The U' pass already ran sparse into the scratch; finish the
    // backward pass dense there, then copy the full row-space result
    // out and restore the scratch zeros.
    for (int t = m_ - 1; t >= 0; --t) {
      double acc = 0.0;
      for (int p = l_start_[t]; p < l_start_[t + 1]; ++p)
        acc += l_val_[p] * work[l_row_[p]];
      work[pivot_row_[t]] -= acc;
    }
    std::copy(work.begin(), work.begin() + m_, v.begin());
    std::fill(work.begin(), work.begin() + m_, 0.0);
    rebuild_pattern(v, pat);
    st.reach = m_;
    st.fallback = true;
    return st;
  }
  std::sort(lreach.begin(), lreach.end());
  for (int k = static_cast<int>(lreach.size()) - 1; k >= 0; --k) {
    const int t = lreach[k];
    double acc = 0.0;
    for (int p = l_start_[t]; p < l_start_[t + 1]; ++p)
      acc += l_val_[p] * work[l_row_[p]];
    work[pivot_row_[t]] -= acc;
  }
  st.reach = std::max(st.reach, static_cast<int>(lreach.size()));
  // Clear the consumed slot-space rhs (every touched slot's step is in
  // the U' reach), then gather the row-space result out of the scratch.
  for (const int t : ureach) v[pivot_col_[t]] = 0.0;
  pat.clear();
  for (const int t : lreach) {
    const int row = pivot_row_[t];
    const double rv = work[row];
    work[row] = 0.0;
    if (rv != 0.0) {
      v[row] = rv;
      pat.push_back(row);
    }
  }
  std::sort(pat.begin(), pat.end());
  return st;
}

BasisLu::SolveStats BasisLu::btran_unit_sparse(int slot, SparseVector& y,
                                               SolveScratch& ws,
                                               double crossover) const {
  DLS_ASSERT(valid() && slot >= 0 && slot < m_);
  if (static_cast<int>(y.values.size()) != m_)
    y.reset(m_);
  else
    y.clear_support();
  y.values[slot] = 1.0;
  y.pattern.push_back(slot);
  return btran_sparse(y, ws, crossover);
}

void BasisLu::btran_unit(int slot, std::vector<double>& y,
                         std::vector<int>* nonzeros) const {
  DLS_ASSERT(valid() && slot >= 0 && slot < m_);
  y.assign(m_, 0.0);
  y[slot] = 1.0;
  btran(y);
  if (nonzeros != nullptr) {
    nonzeros->clear();
    for (int i = 0; i < m_; ++i)
      if (y[i] != 0.0) nonzeros->push_back(i);
  }
}

bool BasisLu::update(int r, const std::vector<double>& w, double pivot_tol) {
  DLS_ASSERT(valid() && static_cast<int>(w.size()) == m_);
  if (std::fabs(w[r]) <= pivot_tol) return false;
  for (int i = 0; i < m_; ++i) {
    if (i == r || w[i] == 0.0) continue;
    eta_pos_.push_back(i);
    eta_val_.push_back(w[i]);
  }
  eta_start_.push_back(static_cast<int>(eta_pos_.size()));
  eta_pivot_pos_.push_back(r);
  eta_pivot_val_.push_back(w[r]);
  return true;
}

bool BasisLu::update(int r, const SparseVector& w, double pivot_tol) {
  DLS_ASSERT(valid() && static_cast<int>(w.values.size()) == m_);
  const double wr = w.values[r];
  if (std::fabs(wr) <= pivot_tol) return false;
  // The pattern is ascending with exact nonzeros, so this appends the
  // same eta entries, in the same order, as the dense scan above.
  for (const int i : w.pattern) {
    if (i == r) continue;
    eta_pos_.push_back(i);
    eta_val_.push_back(w.values[i]);
  }
  eta_start_.push_back(static_cast<int>(eta_pos_.size()));
  eta_pivot_pos_.push_back(r);
  eta_pivot_val_.push_back(wr);
  return true;
}

std::size_t BasisLu::factor_nnz() const {
  return l_row_.size() + u_col_.size() + pivot_row_.size() + eta_pos_.size() +
         eta_pivot_pos_.size();
}

std::size_t BasisLu::memory_bytes() const {
  const auto ints = pivot_row_.size() + pivot_col_.size() + l_start_.size() +
                    l_row_.size() + u_start_.size() + u_col_.size() +
                    row_to_step_.size() + col_to_step_.size() +
                    ut_start_.size() + ut_step_.size() + lt_start_.size() +
                    lt_step_.size() + eta_start_.size() + eta_pos_.size() +
                    eta_pivot_pos_.size();
  const auto doubles = pivot_val_.size() + l_val_.size() + u_val_.size() +
                       eta_val_.size() + eta_pivot_val_.size() + work_.size();
  return ints * sizeof(int) + doubles * sizeof(double);
}

}  // namespace dls::lp
