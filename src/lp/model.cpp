#include "lp/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/error.hpp"

namespace dls::lp {

int Model::add_variable(double lb, double ub, double obj) {
  require(!(lb > ub), "Model::add_variable: lb > ub");
  require(!std::isnan(lb) && !std::isnan(ub) && std::isfinite(obj),
          "Model::add_variable: invalid bound or objective");
  lb_.push_back(lb);
  ub_.push_back(ub);
  obj_.push_back(obj);
  integer_.push_back(false);
  fingerprint_.v.store(0, std::memory_order_relaxed);
  return num_variables() - 1;
}

namespace {
// Sorts terms by variable, merges duplicate mentions and drops exact
// zeros: the one normal form every stored row is in. A row already in
// normal form (strictly ascending, zero-free) is what the sort/merge
// would return, so it is kept after one linear check; a stored row
// carries no spare capacity either way.
std::vector<Term> normalized(std::vector<Term> terms) {
  bool normal = true;
  for (std::size_t i = 0; i < terms.size() && normal; ++i)
    normal = terms[i].coef != 0.0 && (i == 0 || terms[i - 1].var < terms[i].var);
  if (normal) {
    if (terms.capacity() == terms.size()) return terms;
    return std::vector<Term>(terms.begin(), terms.end());
  }
  std::sort(terms.begin(), terms.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  std::vector<Term> merged;
  merged.reserve(terms.size());
  for (const Term& t : terms) {
    if (!merged.empty() && merged.back().var == t.var) {
      merged.back().coef += t.coef;
    } else {
      merged.push_back(t);
    }
  }
  std::erase_if(merged, [](const Term& t) { return t.coef == 0.0; });
  return merged;
}
}  // namespace

int Model::add_constraint(std::vector<Term> terms, Relation rel, double rhs) {
  require(std::isfinite(rhs), "Model::add_constraint: non-finite rhs");
  for (const Term& t : terms) {
    check_var(t.var);
    require(std::isfinite(t.coef), "Model::add_constraint: non-finite coefficient");
  }
  rows_.push_back(normalized(std::move(terms)));
  rel_.push_back(rel);
  rhs_.push_back(rhs);
  fingerprint_.v.store(0, std::memory_order_relaxed);
  return num_constraints() - 1;
}

void Model::set_row(int c, std::vector<Term> terms) {
  require(c >= 0 && c < num_constraints(), "Model::set_row: row out of range");
  for (const Term& t : terms) {
    check_var(t.var);
    require(std::isfinite(t.coef), "Model::set_row: non-finite coefficient");
  }
  rows_[c] = normalized(std::move(terms));
  fingerprint_.v.store(0, std::memory_order_relaxed);
}

void Model::set_rhs(int c, double rhs) {
  require(c >= 0 && c < num_constraints(), "Model::set_rhs: row out of range");
  require(std::isfinite(rhs), "Model::set_rhs: non-finite rhs");
  rhs_[c] = rhs;
}

void Model::set_objective_coef(int var, double coef) {
  check_var(var);
  require(std::isfinite(coef), "Model::set_objective_coef: non-finite coefficient");
  obj_[var] = coef;
}

void Model::set_bounds(int var, double lb, double ub) {
  check_var(var);
  require(!(lb > ub), "Model::set_bounds: lb > ub");
  lb_[var] = lb;
  ub_[var] = ub;
}

void Model::set_integer(int var, bool integer) {
  check_var(var);
  integer_[var] = integer;
}

double Model::objective_value(std::span<const double> x) const {
  require(static_cast<int>(x.size()) == num_variables(),
          "Model::objective_value: wrong assignment size");
  double v = obj_constant_;
  for (int j = 0; j < num_variables(); ++j) v += obj_[j] * x[j];
  return v;
}

bool Model::is_feasible(std::span<const double> x, double tol) const {
  if (static_cast<int>(x.size()) != num_variables()) return false;
  for (int j = 0; j < num_variables(); ++j) {
    if (x[j] < lb_[j] - tol || x[j] > ub_[j] + tol) return false;
  }
  for (int c = 0; c < num_constraints(); ++c) {
    double lhs = 0.0;
    for (const Term& t : rows_[c]) lhs += t.coef * x[t.var];
    switch (rel_[c]) {
      case Relation::LessEqual:
        if (lhs > rhs_[c] + tol) return false;
        break;
      case Relation::GreaterEqual:
        if (lhs < rhs_[c] - tol) return false;
        break;
      case Relation::Equal:
        if (std::fabs(lhs - rhs_[c]) > tol) return false;
        break;
    }
  }
  return true;
}

bool Model::is_integer_feasible(std::span<const double> x, double tol) const {
  for (int j = 0; j < num_variables(); ++j) {
    if (!integer_[j]) continue;
    if (std::fabs(x[j] - std::round(x[j])) > tol) return false;
  }
  return true;
}

std::uint64_t Model::structure_fingerprint() const {
  std::uint64_t h = fingerprint_.v.load(std::memory_order_relaxed);
  if (h != 0) return h;
  h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(num_variables()));
  mix(static_cast<std::uint64_t>(num_constraints()));
  for (int c = 0; c < num_constraints(); ++c) {
    mix(static_cast<std::uint64_t>(rel_[c]) + 0x517c);
    for (const Term& t : rows_[c]) {
      mix(static_cast<std::uint64_t>(t.var));
      std::uint64_t bits = 0;
      std::memcpy(&bits, &t.coef, sizeof(bits));
      mix(bits);
    }
  }
  // h == 0 is unreachable for FNV-1a over a nonempty input in practice;
  // if it ever happened the only cost is recomputing on each call.
  fingerprint_.v.store(h, std::memory_order_relaxed);
  return h;
}

void Model::check_var(int var) const {
  require(var >= 0 && var < num_variables(), "Model: variable index out of range");
}

}  // namespace dls::lp
