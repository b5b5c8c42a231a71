// Linear/mixed-integer program builder.
//
// A Model owns variables (with bounds, objective coefficients, optional
// integrality) and sparse constraint rows. It is solver-agnostic: the
// simplex solver consumes it read-only, and the MILP branch-and-bound
// clones bound sets per node without copying rows.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "lp/types.hpp"

namespace dls::lp {

class Model {
public:
  /// Adds a variable with bounds [lb, ub] (use -kInf/kInf for free sides)
  /// and objective coefficient `obj`. Returns its index.
  int add_variable(double lb, double ub, double obj);

  /// Adds a constraint Σ terms {<=,=,>=} rhs. Duplicate variable mentions
  /// within one row are merged and exact zeros dropped; a row already in
  /// that form (strictly ascending variables, no zero coefficient) is
  /// stored as given after one linear check, so a builder that emits its
  /// rows ascending skips the sort. Returns the row index.
  int add_constraint(std::vector<Term> terms, Relation rel, double rhs);

  void set_sense(Sense sense) { sense_ = sense; }
  /// Replaces one row's terms in place (duplicates merged, zeros dropped
  /// exactly like add_constraint, so a patched row is bit-identical to a
  /// freshly added one); relation and rhs keep their values. The online
  /// reschedulers re-price their cached reduced model's max-connect rows
  /// through this when a capacity event moves a route's bandwidth.
  void set_row(int c, std::vector<Term> terms);
  /// Replaces one row's right-hand side (a pure capacity rescale).
  void set_rhs(int c, double rhs);
  void set_objective_coef(int var, double coef);
  /// Constant added to the objective value (does not affect the argmax).
  void set_objective_constant(double c) { obj_constant_ = c; }
  void set_bounds(int var, double lb, double ub);
  /// Marks a variable as integer (used by the MILP solver; the LP solver
  /// ignores integrality, which is exactly the rational relaxation).
  void set_integer(int var, bool integer = true);

  [[nodiscard]] int num_variables() const { return static_cast<int>(lb_.size()); }
  [[nodiscard]] int num_constraints() const { return static_cast<int>(rhs_.size()); }
  [[nodiscard]] Sense sense() const { return sense_; }
  [[nodiscard]] double objective_constant() const { return obj_constant_; }

  [[nodiscard]] double lower_bound(int var) const { return lb_[var]; }
  [[nodiscard]] double upper_bound(int var) const { return ub_[var]; }
  [[nodiscard]] double objective_coef(int var) const { return obj_[var]; }
  [[nodiscard]] bool is_integer(int var) const { return integer_[var]; }
  /// Every variable's bound or cost in index order: the solver loads a
  /// model through these in one pass per array.
  [[nodiscard]] std::span<const double> lower_bounds() const { return lb_; }
  [[nodiscard]] std::span<const double> upper_bounds() const { return ub_; }
  [[nodiscard]] std::span<const double> objective_coefs() const { return obj_; }

  [[nodiscard]] std::span<const Term> row(int c) const { return rows_[c]; }
  [[nodiscard]] Relation relation(int c) const { return rel_[c]; }
  [[nodiscard]] double rhs(int c) const { return rhs_[c]; }

  /// Objective value of a full assignment (includes the constant).
  [[nodiscard]] double objective_value(std::span<const double> x) const;

  /// True iff `x` satisfies all bounds and rows within tolerance `tol`
  /// (integrality is not checked; see is_integer_feasible).
  [[nodiscard]] bool is_feasible(std::span<const double> x, double tol) const;

  /// True iff every integer-marked variable of `x` is within `tol` of an integer.
  [[nodiscard]] bool is_integer_feasible(std::span<const double> x, double tol) const;

  /// FNV-1a hash of the constraint *structure* (dimensions, relations,
  /// term indices and coefficient bits). Costs, bounds, rhs and
  /// integrality are deliberately excluded, so re-priced variants of one
  /// matrix share a fingerprint (this is what keys the solver's column
  /// cache and warm-start capsules). Computed lazily and cached; the
  /// structural mutators (add_variable, add_constraint, set_row)
  /// invalidate the cache, the non-structural ones keep it.
  [[nodiscard]] std::uint64_t structure_fingerprint() const;

private:
  void check_var(int var) const;

  /// Copyable lazily-filled hash slot; 0 means "not computed yet".
  /// Atomic so concurrent read-only solves of one model may race to fill
  /// it (they all store the same value).
  struct CachedHash {
    std::atomic<std::uint64_t> v{0};
    CachedHash() = default;
    CachedHash(const CachedHash& o)
        : v(o.v.load(std::memory_order_relaxed)) {}
    CachedHash& operator=(const CachedHash& o) {
      v.store(o.v.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
  };

  Sense sense_ = Sense::Minimize;
  double obj_constant_ = 0.0;
  std::vector<double> lb_, ub_, obj_;
  std::vector<bool> integer_;
  std::vector<std::vector<Term>> rows_;
  std::vector<Relation> rel_;
  std::vector<double> rhs_;
  mutable CachedHash fingerprint_;
};

}  // namespace dls::lp
