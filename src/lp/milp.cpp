#include "lp/milp.hpp"

#include <cmath>
#include <utility>

#include "support/error.hpp"

namespace dls::lp {

namespace {

/// How close to an integer a relaxation value must lie to count as
/// integral.
constexpr double kIntTol = 1e-6;

struct Node {
  std::vector<double> lb, ub;
  int depth = 0;
};

}  // namespace

MilpResult BranchAndBound::solve(const Model& model) const {
  MilpResult result;
  const bool maximize = model.sense() == Sense::Maximize;
  // "a is strictly better than b" in the model's sense.
  const auto better = [maximize](double a, double b) {
    return maximize ? a > b : a < b;
  };

  Model work = model;  // bounds are mutated per node; rows are shared copies
  const SimplexSolver solver;

  const int n = model.num_variables();
  std::vector<int> int_vars;
  for (int j = 0; j < n; ++j)
    if (model.is_integer(j)) int_vars.push_back(j);

  Node root;
  root.lb.resize(n);
  root.ub.resize(n);
  for (int j = 0; j < n; ++j) {
    root.lb[j] = model.lower_bound(j);
    root.ub[j] = model.upper_bound(j);
  }

  std::vector<Node> stack;
  stack.push_back(std::move(root));
  bool have_incumbent = false;
  bool exhausted = true;

  while (!stack.empty()) {
    if (result.nodes >= options_.max_nodes) {
      exhausted = false;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();

    for (int j = 0; j < n; ++j) work.set_bounds(j, node.lb[j], node.ub[j]);
    ++result.nodes;
    const Solution rel = solver.solve(work);

    if (rel.status == SolveStatus::Infeasible) continue;
    if (rel.status == SolveStatus::Unbounded) {
      // Unbounded relaxation at the root means the MILP is unbounded or
      // infeasible; report unbounded and let the caller decide.
      result.status = SolveStatus::Unbounded;
      return result;
    }
    if (rel.status != SolveStatus::Optimal) {
      // Numerical trouble in a node: treat conservatively as unexplored.
      exhausted = false;
      continue;
    }
    if (have_incumbent) {
      // Prune when the relaxation bound cannot beat the incumbent by more
      // than the gap tolerance.
      const double margin = maximize ? rel.objective - result.objective
                                     : result.objective - rel.objective;
      if (margin <= options_.gap_tol) continue;
    }

    // Most-fractional branching variable.
    int branch_var = -1;
    double branch_frac = kIntTol;
    for (int j : int_vars) {
      const double v = rel.x[j];
      const double frac = std::fabs(v - std::round(v));
      if (frac > branch_frac) {
        branch_frac = frac;
        branch_var = j;
      }
    }

    if (branch_var < 0) {
      // Integer feasible.
      if (!have_incumbent || better(rel.objective, result.objective)) {
        have_incumbent = true;
        result.objective = rel.objective;
        result.x = rel.x;
        // Snap integer variables exactly.
        for (int j : int_vars) result.x[j] = std::round(result.x[j]);
      }
      continue;
    }

    const double v = rel.x[branch_var];
    Node down = node;
    down.ub[branch_var] = std::floor(v);
    down.depth = node.depth + 1;
    Node up = std::move(node);
    up.lb[branch_var] = std::ceil(v);
    up.depth = down.depth;

    // Explore the side nearer the relaxation value first (pushed last).
    if (v - std::floor(v) < 0.5) {
      if (up.lb[branch_var] <= up.ub[branch_var]) stack.push_back(std::move(up));
      if (down.lb[branch_var] <= down.ub[branch_var]) stack.push_back(std::move(down));
    } else {
      if (down.lb[branch_var] <= down.ub[branch_var]) stack.push_back(std::move(down));
      if (up.lb[branch_var] <= up.ub[branch_var]) stack.push_back(std::move(up));
    }
  }

  if (have_incumbent) {
    result.status = exhausted ? SolveStatus::Optimal : SolveStatus::NodeLimit;
  } else {
    result.status = exhausted ? SolveStatus::Infeasible : SolveStatus::NodeLimit;
  }
  return result;
}

}  // namespace dls::lp
