// Joint solves for N concurrent divisible loads (ISSUE 8).
//
// solve_loads builds the reduced relaxation of the multi-load
// steady-state problem (problem.hpp) and optimizes one of three
// objectives over the shared platform polytope:
//
//   WeightedSum  max sum_j w_j * throughput_j          (one LP)
//   MaxMin       max min_j w_j * throughput_j          (one LP, aux t)
//   PropFair     max sum_j w_j * log(throughput_j)     (Dinkelbach-style
//                iteration: each round solves the weighted-sum LP with
//                coefficients w_j / throughput_j^(t) — the linearization
//                of the log objective at the damped reference point —
//                until the throughput vector stops moving. Objective
//                coefficient patches are non-structural, so every round
//                after the first warm-starts from the previous capsule.)
//
// The LpWarmStart contract matches the single-load heuristics: a capsule
// plus arena threaded across calls makes event-sequenced solves warm,
// and results are bit-identical with or without the arena.
#pragma once

#include "core/heuristics.hpp"
#include "core/loads.hpp"
#include "core/problem.hpp"
#include "lp/simplex.hpp"

namespace dls::core {

struct MultiLoadSolveOptions {
  MultiObjective objective = MultiObjective::WeightedSum;
  lp::SimplexOptions lp;
};

struct MultiLoadSolution {
  lp::SolveStatus status = lp::SolveStatus::Infeasible;
  /// Objective value under the requested MultiObjective (for PropFair:
  /// sum_j w_j log(max(throughput_j, 1e-9)) over positive weights).
  double objective = 0.0;
  std::vector<double> throughput;  ///< per load: sum_l alpha_{j,l}
  int lp_solves = 0;
  int lp_iterations = 0;  ///< simplex pivots summed over all solves
  bool warm = false;      ///< the first solve reused the caller's capsule
  bool repaired = false;  ///< ... through the basis-repair path
};

/// Solves the joint N-load problem on `plat`. Throws dls::Error on an
/// invalid load set; solver failures come back in `status`.
[[nodiscard]] MultiLoadSolution solve_loads(const platform::Platform& plat,
                                            const LoadSet& loads,
                                            const MultiLoadSolveOptions& options = {},
                                            LpWarmStart* warm = nullptr);

/// Same, over a pre-built problem whose Objective matches the requested
/// MultiObjective (Sum for WeightedSum/PropFair, MaxMin for MaxMin) —
/// the path for callers that cache the problem across events. When
/// `warm->reduced` is set it is used instead of building a fresh reduced
/// model — except under PropFair, whose iteration re-patches objective
/// coefficients and therefore always owns a private model (the capsule
/// and arena still thread through).
[[nodiscard]] MultiLoadSolution solve_loads(const SteadyStateProblem& problem,
                                            const MultiLoadSolveOptions& options = {},
                                            LpWarmStart* warm = nullptr);

}  // namespace dls::core
