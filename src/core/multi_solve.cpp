#include "core/multi_solve.hpp"

#include <algorithm>
#include <cmath>

namespace dls::core {

namespace {

/// PropFair iteration controls: at most kPfMaxRounds reweighted LPs,
/// stopping once the largest relative throughput change drops below
/// kPfTol; kPfFloor keeps the reweighting finite for starved loads.
constexpr int kPfMaxRounds = 24;
constexpr double kPfTol = 1e-7;
constexpr double kPfFloor = 1e-9;

/// Each load's throughput: its alphas summed in ascending destination
/// order (load routes are load-major), negative solver noise clamped.
void read_throughputs(const SteadyStateProblem& problem,
                      const SteadyStateProblem::ReducedModel& reduced,
                      const lp::Solution& sol, MultiLoadSolution& out) {
  const std::vector<SteadyStateProblem::LoadRoute>& lroutes = problem.load_routes();
  require(reduced.alpha_var.size() == lroutes.size() &&
              sol.x.size() == static_cast<std::size_t>(reduced.model.num_variables()),
          "read_throughputs: model does not match this problem");
  out.throughput.assign(problem.num_loads(), 0.0);
  for (std::size_t r = 0; r < lroutes.size(); ++r)
    out.throughput[lroutes[r].load] += std::max(0.0, sol.x[reduced.alpha_var[r]]);
}

MultiLoadSolution solve_single_lp(const SteadyStateProblem& problem,
                                  const MultiLoadSolveOptions& options,
                                  LpWarmStart* warm) {
  const Relaxation relaxation = solve_relaxation(problem, options.lp, warm);
  const lp::Solution& sol = relaxation.solution;
  MultiLoadSolution out;
  out.status = sol.status;
  out.lp_solves = 1;
  out.lp_iterations = sol.iterations;
  out.warm = sol.warm_kind != lp::WarmKind::Cold;
  out.repaired = sol.warm_kind == lp::WarmKind::Basis;
  if (sol.status != lp::SolveStatus::Optimal) return out;
  out.objective = sol.objective;
  read_throughputs(problem, relaxation.reduced(), sol, out);
  return out;
}

MultiLoadSolution solve_prop_fair(const SteadyStateProblem& problem,
                                  const MultiLoadSolveOptions& options,
                                  LpWarmStart* warm) {
  // The iteration re-patches objective coefficients between rounds, so it
  // owns its model: a caller-cached reduced model (warm->reduced) is NOT
  // used here. The capsule/arena still thread through — coefficient
  // patches are non-structural, so round 2..R warm-start off round 1,
  // and round 1 warm-starts off the caller's previous event.
  SteadyStateProblem::ReducedModel reduced = problem.build_reduced();
  // Thread the caller's capsule/arena when given; otherwise chain the
  // rounds through a local capsule so they still warm-start each other.
  lp::WarmState local_state;
  LpWarmStart chain;
  if (warm != nullptr) chain = *warm;
  if (chain.state == nullptr) chain.state = &local_state;

  const LoadSet& loads = problem.loads();
  const int num_loads = problem.num_loads();

  lp::Solution sol = solve_warm(reduced.model, options.lp, &chain);
  MultiLoadSolution out;
  out.status = sol.status;
  out.lp_solves = 1;
  out.lp_iterations = sol.iterations;
  out.warm = sol.warm_kind != lp::WarmKind::Cold;
  out.repaired = sol.warm_kind == lp::WarmKind::Basis;
  // Event-level semantics: the caller learns how round 1 was seeded.
  if (warm != nullptr) warm->kind = sol.warm_kind;
  if (sol.status != lp::SolveStatus::Optimal) return out;
  read_throughputs(problem, reduced, sol, out);

  std::vector<double> ref = out.throughput;
  for (int round = 1; round < kPfMaxRounds; ++round) {
    // Linearize sum w_j log(x_j) at the reference point: coefficient
    // w_j / ref_j, floored so starved loads pull hard instead of
    // dividing by zero. The floor is RELATIVE to the best-served load:
    // round 1 optimizes a weighted sum whose vertex may starve a load
    // outright, and w / kPfFloor would put ~1e9-scale coefficients into
    // the simplex (iteration-limit territory). A 1e-6 relative floor
    // still pulls the starved load up by six orders of magnitude while
    // keeping the objective's dynamic range factorable.
    double ref_max = kPfFloor;
    for (int j = 0; j < num_loads; ++j)
      if (loads.loads[j].weight > 0.0) ref_max = std::max(ref_max, ref[j]);
    const double lin_floor = std::max(kPfFloor, 1e-6 * ref_max);
    for (std::size_t r = 0; r < reduced.alpha_var.size(); ++r) {
      const double w = loads.loads[problem.load_routes()[r].load].weight;
      reduced.model.set_objective_coef(
          reduced.alpha_var[r],
          w > 0.0 ? w / std::max(ref[problem.load_routes()[r].load], lin_floor)
                  : 0.0);
    }
    sol = solve_warm(reduced.model, options.lp, &chain);
    ++out.lp_solves;
    out.lp_iterations += sol.iterations;
    if (sol.status != lp::SolveStatus::Optimal) {
      out.status = sol.status;
      return out;
    }
    read_throughputs(problem, reduced, sol, out);

    double delta = 0.0;
    for (int j = 0; j < num_loads; ++j) {
      if (loads.loads[j].weight <= 0.0) continue;
      delta = std::max(delta, std::fabs(out.throughput[j] - ref[j]) /
                                  std::max(ref[j], kPfFloor));
    }
    if (delta < kPfTol) break;
    // Damped reference update: averaging prevents two-cycle oscillation
    // between vertices of a degenerate optimum face.
    for (int j = 0; j < num_loads; ++j)
      ref[j] = 0.5 * (ref[j] + out.throughput[j]);
  }

  out.objective = 0.0;
  for (int j = 0; j < num_loads; ++j) {
    const double w = loads.loads[j].weight;
    if (w <= 0.0) continue;
    out.objective += w * std::log(std::max(out.throughput[j], kPfFloor));
  }
  return out;
}

}  // namespace

MultiLoadSolution solve_loads(const SteadyStateProblem& problem,
                              const MultiLoadSolveOptions& options,
                              LpWarmStart* warm) {
  if (options.objective == MultiObjective::PropFair)
    return solve_prop_fair(problem, options, warm);
  const Objective want = options.objective == MultiObjective::MaxMin
                             ? Objective::MaxMin
                             : Objective::Sum;
  require(problem.objective() == want,
          "solve_loads: problem objective does not match the requested "
          "multi-load objective");
  return solve_single_lp(problem, options, warm);
}

MultiLoadSolution solve_loads(const platform::Platform& plat,
                              const LoadSet& loads,
                              const MultiLoadSolveOptions& options,
                              LpWarmStart* warm) {
  const Objective obj = options.objective == MultiObjective::MaxMin
                            ? Objective::MaxMin
                            : Objective::Sum;
  const SteadyStateProblem problem(plat, loads, obj);
  return solve_loads(problem, options, warm);
}

}  // namespace dls::core
