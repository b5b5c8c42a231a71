// Branch-and-bound for mixed-integer linear programs.
//
// The paper's program (7) is mixed: rational alpha, integer beta. Solving
// it exactly is NP-hard (paper §4) and the authors never run it at scale;
// we provide an exact solver anyway for small instances, used to (a)
// verify the NP-completeness reduction (MILP optimum == max independent
// set) and (b) measure how far each heuristic lands from the true mixed
// optimum on toy platforms.
//
// Depth-first search, most-fractional branching, LP relaxation bounds via
// SimplexSolver, best-known incumbent pruning.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace dls::lp {

struct MilpOptions {
  std::int64_t max_nodes = 200000;  ///< search-tree size cap
  double gap_tol = 1e-9;        ///< prune nodes within this of the incumbent
};

struct MilpResult {
  SolveStatus status = SolveStatus::Infeasible;
  double objective = 0.0;       ///< incumbent objective (model sense)
  std::vector<double> x;        ///< incumbent assignment (empty if none)
  std::int64_t nodes = 0;       ///< LP relaxations solved
};

class BranchAndBound {
public:
  explicit BranchAndBound(MilpOptions options = {}) : options_(options) {}

  /// Solves the model exactly over its integer-marked variables.
  /// Status is Optimal (tree exhausted), NodeLimit (incumbent may be
  /// suboptimal), Infeasible, or Unbounded (relaxation unbounded at root).
  [[nodiscard]] MilpResult solve(const Model& model) const;

private:
  MilpOptions options_;
};

}  // namespace dls::lp
