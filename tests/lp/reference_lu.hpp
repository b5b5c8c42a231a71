// The original vector-of-vectors Markowitz factorization, kept as the
// oracle of BasisLu::factorize: the production kernel works on pooled,
// reused storage and must reproduce this one's pivot sequence and its
// L and U factors bit for bit, in the same storage order.
#pragma once

#include <span>
#include <vector>

namespace dls::lp::testing {

/// The factors one factorization produces, in BasisLu's storage layout.
struct ReferenceFactors {
  std::vector<int> pivot_row, pivot_col;
  std::vector<double> pivot_val;
  std::vector<int> l_start, l_row;
  std::vector<double> l_val;
  std::vector<int> u_start, u_col;
  std::vector<double> u_val;
};

/// Factorizes the m x m CSC matrix exactly as BasisLu::factorize did
/// before it moved onto pooled storage. Returns false on a singular
/// matrix (`out` then holds the partial factors).
bool reference_factorize(int m, std::span<const int> col_ptr,
                         std::span<const int> rows, std::span<const double> values,
                         double abs_pivot_tol, ReferenceFactors& out);

}  // namespace dls::lp::testing
