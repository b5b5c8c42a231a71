#include "lp/reference_lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dls::lp::testing {

namespace {
constexpr double kThreshold = 0.1;
constexpr int kCandidateCols = 8;
}  // namespace

bool reference_factorize(int m, std::span<const int> col_ptr,
                         std::span<const int> rows, std::span<const double> values,
                         double abs_pivot_tol, ReferenceFactors& out) {
  out = ReferenceFactors{};

  // Active submatrix, column-wise with exact per-row/column counts. The
  // row lists are supersets (stale column ids are skipped on use).
  std::vector<std::vector<int>> col_rows(m);
  std::vector<std::vector<double>> col_vals(m);
  std::vector<std::vector<int>> row_cols(m);
  std::vector<int> row_count(m, 0), col_count(m, 0);
  for (int j = 0; j < m; ++j) {
    for (int p = col_ptr[j]; p < col_ptr[j + 1]; ++p) {
      const int i = rows[p];
      const double v = values[p];
      if (v == 0.0) continue;
      col_rows[j].push_back(i);
      col_vals[j].push_back(v);
      row_cols[i].push_back(j);
      ++row_count[i];
      ++col_count[j];
    }
  }

  std::vector<char> row_done(m, 0), col_done(m, 0);
  out.l_start.push_back(0);
  out.u_start.push_back(0);

  std::vector<int> singletons;
  for (int j = 0; j < m; ++j)
    if (col_count[j] == 1) singletons.push_back(j);

  std::vector<int> urow_cols;
  std::vector<double> urow_vals;

  for (int step = 0; step < m; ++step) {
    int best_row = -1, best_col = -1;
    double best_val = 0.0;
    while (!singletons.empty()) {
      const int j = singletons.back();
      singletons.pop_back();
      if (col_done[j] || col_count[j] != 1) continue;  // stale entry
      const double v = col_vals[j].front();
      if (std::fabs(v) < abs_pivot_tol) break;  // too small: full scan decides
      best_row = col_rows[j].front();
      best_col = j;
      best_val = v;
      break;
    }

    if (best_col < 0) {
      long long best_cost = std::numeric_limits<long long>::max();
      for (int pass = 0; pass < 2 && best_col < 0; ++pass) {
        int order[kCandidateCols];
        int filled = 0;
        for (int j = 0; j < m; ++j) {
          if (col_done[j]) continue;
          int pos = filled;
          while (pos > 0 && col_count[order[pos - 1]] > col_count[j]) --pos;
          if (pos >= kCandidateCols) continue;
          if (filled < kCandidateCols) ++filled;
          for (int s = filled - 1; s > pos; --s) order[s] = order[s - 1];
          order[pos] = j;
        }
        for (int o = 0; o < filled; ++o) {
          const int j = order[o];
          if (col_count[j] == 0) return false;  // structurally singular
          double colmax = 0.0;
          for (double v : col_vals[j]) colmax = std::max(colmax, std::fabs(v));
          const double accept = pass == 0
                                    ? std::max(kThreshold * colmax, abs_pivot_tol)
                                    : abs_pivot_tol;
          for (std::size_t p = 0; p < col_rows[j].size(); ++p) {
            const int i = col_rows[j][p];
            const double v = col_vals[j][p];
            if (std::fabs(v) < accept) continue;
            const long long cost = static_cast<long long>(row_count[i] - 1) *
                                   static_cast<long long>(col_count[j] - 1);
            if (cost < best_cost ||
                (cost == best_cost && std::fabs(v) > std::fabs(best_val))) {
              best_cost = cost;
              best_row = i;
              best_col = j;
              best_val = v;
            }
          }
        }
      }
      if (best_col < 0) return false;  // numerically singular
    }

    const int pr = best_row, pc = best_col;
    const double pval = best_val;
    row_done[pr] = 1;
    col_done[pc] = 1;
    out.pivot_row.push_back(pr);
    out.pivot_col.push_back(pc);
    out.pivot_val.push_back(pval);

    for (std::size_t p = 0; p < col_rows[pc].size(); ++p) {
      const int i = col_rows[pc][p];
      if (i == pr) continue;
      out.l_row.push_back(i);
      out.l_val.push_back(col_vals[pc][p] / pval);
      --row_count[i];
    }
    out.l_start.push_back(static_cast<int>(out.l_row.size()));
    col_rows[pc].clear();
    col_vals[pc].clear();

    urow_cols.clear();
    urow_vals.clear();
    for (const int j : row_cols[pr]) {
      if (col_done[j]) continue;
      auto& cr = col_rows[j];
      auto& cv = col_vals[j];
      for (std::size_t p = 0; p < cr.size(); ++p) {
        if (cr[p] != pr) continue;
        urow_cols.push_back(j);
        urow_vals.push_back(cv[p]);
        cr[p] = cr.back();
        cr.pop_back();
        cv[p] = cv.back();
        cv.pop_back();
        if (--col_count[j] == 1) singletons.push_back(j);
        break;
      }
    }
    row_cols[pr].clear();
    for (std::size_t q = 0; q < urow_cols.size(); ++q) {
      out.u_col.push_back(urow_cols[q]);
      out.u_val.push_back(urow_vals[q]);
    }
    out.u_start.push_back(static_cast<int>(out.u_col.size()));

    const int lbeg = out.l_start[step], lend = out.l_start[step + 1];
    for (std::size_t q = 0; q < urow_cols.size(); ++q) {
      const int j = urow_cols[q];
      const double u = urow_vals[q];
      auto& cr = col_rows[j];
      auto& cv = col_vals[j];
      for (int p = lbeg; p < lend; ++p) {
        const int i = out.l_row[p];
        const double delta = out.l_val[p] * u;
        bool found = false;
        for (std::size_t e = 0; e < cr.size(); ++e) {
          if (cr[e] == i) {
            cv[e] -= delta;
            found = true;
            break;
          }
        }
        if (!found && delta != 0.0) {  // fill-in
          cr.push_back(i);
          cv.push_back(-delta);
          row_cols[i].push_back(j);
          ++row_count[i];
          ++col_count[j];
        }
      }
    }
  }
  return true;
}

}  // namespace dls::lp::testing
