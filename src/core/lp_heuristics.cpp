// LP-based heuristics (paper §5.2) and the rational upper bound.
#include <algorithm>
#include <cmath>
#include <vector>

#include "core/heuristics.hpp"
#include "core/internal.hpp"

namespace dls::core {

namespace {

constexpr double kEps = 1e-9;
// Slack when flooring a beta so 2.999999 (solver noise) counts as 3.
constexpr double kFloorSnap = 1e-7;

HeuristicResult failed(const SteadyStateProblem& problem, lp::SolveStatus status) {
  HeuristicResult r{Allocation(problem.num_clusters()), 0.0, 0, status};
  return r;
}

/// Rounds a reduced-model LP solution down: beta_hat = floor(beta_tilde),
/// alpha_hat = min(alpha_tilde, beta_hat * pbw). This is LPR's whole job
/// and the starting point of LPRG.
Allocation round_down(const SteadyStateProblem& problem,
                      const SteadyStateProblem::ReducedModel& reduced,
                      const std::vector<double>& x) {
  Allocation alloc(problem.num_clusters());
  for (std::size_t r = 0; r < problem.routes().size(); ++r) {
    const auto& route = problem.routes()[r];
    const double a = std::max(0.0, x[reduced.alpha_var[r]]);
    if (!route.needs_beta) {
      alloc.set_alpha(route.k, route.l, a);
      continue;
    }
    const double beta_tilde = a / route.pbw;
    const double beta_hat = std::floor(beta_tilde + kFloorSnap);
    alloc.set_beta(route.k, route.l, beta_hat);
    alloc.set_alpha(route.k, route.l, std::min(a, beta_hat * route.pbw));
  }
  return alloc;
}

}  // namespace

lp::Solution solve_warm(const lp::Model& model, const lp::SimplexOptions& lp_options,
                        LpWarmStart* warm) {
  lp::Solution sol = lp::SimplexSolver(lp_options).solve(
      model, warm != nullptr ? warm->state : nullptr,
      warm != nullptr ? warm->arena : nullptr);
  if (warm != nullptr) warm->kind = sol.warm_kind;
  return sol;
}

Relaxation solve_relaxation(const SteadyStateProblem& problem,
                            const lp::SimplexOptions& lp_options, LpWarmStart* warm) {
  Relaxation out;
  if (warm != nullptr && warm->reduced != nullptr)
    out.borrowed = warm->reduced;
  else
    out.own.emplace(problem.build_reduced());
  out.solution = solve_warm(out.reduced().model, lp_options, warm);
  return out;
}

LpBoundResult lp_upper_bound(const SteadyStateProblem& problem,
                             const Relaxation& relaxation) {
  const lp::Solution& sol = relaxation.solution;
  LpBoundResult out{0.0, Allocation(problem.num_clusters()), sol.status,
                    sol.iterations};
  if (sol.status != lp::SolveStatus::Optimal) return out;
  out.objective = sol.objective;
  out.allocation = problem.allocation_from_reduced(relaxation.reduced(), sol.x);
  return out;
}

HeuristicResult run_lpr(const SteadyStateProblem& problem,
                        const Relaxation& relaxation) {
  const lp::Solution& sol = relaxation.solution;
  if (sol.status != lp::SolveStatus::Optimal) return failed(problem, sol.status);

  HeuristicResult result{round_down(problem, relaxation.reduced(), sol.x), 0.0, 1,
                         lp::SolveStatus::Optimal, sol.iterations};
  result.objective = problem.objective_of(result.allocation);
  return result;
}

HeuristicResult run_lprg(const SteadyStateProblem& problem,
                         const Relaxation& relaxation,
                         const GreedyOptions& greedy_options) {
  const lp::Solution& sol = relaxation.solution;
  if (sol.status != lp::SolveStatus::Optimal) return failed(problem, sol.status);

  internal::GreedyState st = internal::GreedyState::after(
      problem, round_down(problem, relaxation.reduced(), sol.x));
  internal::greedy_fill(problem, st, greedy_options);
  HeuristicResult result{std::move(st.alloc), 0.0, 1, lp::SolveStatus::Optimal,
                         sol.iterations};
  result.objective = problem.objective_of(result.allocation);
  return result;
}

HeuristicResult run_lprr(const SteadyStateProblem& problem, Rng& rng,
                         const LprrOptions& options) {
  const lp::SimplexSolver solver;

  std::vector<SteadyStateProblem::BetaFixing> fixings;
  std::vector<char> is_fixed(problem.routes().size(), 0);
  std::vector<int> unfixed;
  for (std::size_t r = 0; r < problem.routes().size(); ++r)
    if (problem.routes()[r].needs_beta) unfixed.push_back(static_cast<int>(r));

  // Residual max-connect budget under the current fixings, used to demote
  // an up-rounding that would not fit (keeps LPRR always feasible).
  std::vector<double> budget(problem.plat().num_links());
  for (platform::LinkId li = 0; li < problem.plat().num_links(); ++li)
    budget[li] = problem.plat().link(li).max_connections;

  // Rounds route r's fractional beta to an integer (coin per `options`),
  // demoting an up-round that would not fit the links' residual budget,
  // then records the fixing.
  const auto fix_route = [&](int r, double beta_tilde) {
    const auto& route = problem.routes()[r];
    const int fl = static_cast<int>(std::floor(beta_tilde + kFloorSnap));
    const double frac = std::max(0.0, beta_tilde - fl);
    int value = fl;
    if (frac > kEps) {
      const double p_up = options.equal_probability ? 0.5 : frac;
      if (rng.bernoulli(p_up)) value = fl + 1;
    }
    if (value > fl) {
      for (platform::LinkId li : problem.plat().route(route.k, route.l)) {
        if (budget[li] < value - kEps) {
          value = fl;
          break;
        }
      }
    }
    for (platform::LinkId li : problem.plat().route(route.k, route.l))
      budget[li] -= value;
    fixings.push_back({r, value});
    is_fixed[r] = 1;
  };

  int lp_solves = 0;
  if (options.resolve_between_fixings) {
    while (!unfixed.empty()) {
      const auto reduced = problem.build_reduced(fixings);
      const lp::Solution sol = solver.solve(reduced.model, nullptr, options.arena);
      ++lp_solves;
      if (sol.status != lp::SolveStatus::Optimal) {
        HeuristicResult r = failed(problem, sol.status);
        r.lp_solves = lp_solves;
        return r;
      }

      // Candidate routes: still free, with a nonzero fractional beta.
      std::vector<int> candidates;
      for (int r : unfixed) {
        const double beta =
            sol.x[reduced.alpha_var[r]] / problem.routes()[r].pbw;
        if (beta > kEps) candidates.push_back(r);
      }
      if (candidates.empty()) {
        // Everything left is at beta ~ 0: pin them all; final solve below.
        for (int r : unfixed) fix_route(r, 0.0);
        unfixed.clear();
        break;
      }

      const int r = candidates[rng.index(candidates.size())];
      fix_route(r, sol.x[reduced.alpha_var[r]] / problem.routes()[r].pbw);
      unfixed.erase(std::find(unfixed.begin(), unfixed.end(), r));
    }
  } else if (!unfixed.empty()) {
    // One-shot: round every beta from a single relaxation solve, in a
    // random order (the order matters through the budget demotions).
    const auto reduced = problem.build_reduced();
    const lp::Solution sol = solver.solve(reduced.model, nullptr, options.arena);
    ++lp_solves;
    if (sol.status != lp::SolveStatus::Optimal) {
      HeuristicResult r = failed(problem, sol.status);
      r.lp_solves = lp_solves;
      return r;
    }
    std::vector<int> order = unfixed;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.index(i)]);
    for (int r : order)
      fix_route(r, sol.x[reduced.alpha_var[r]] / problem.routes()[r].pbw);
    unfixed.clear();
  }

  // Final solve with every beta pinned gives the best alphas under them.
  const auto reduced = problem.build_reduced(fixings);
  const lp::Solution sol = solver.solve(reduced.model, nullptr, options.arena);
  ++lp_solves;
  if (sol.status != lp::SolveStatus::Optimal) {
    HeuristicResult r = failed(problem, sol.status);
    r.lp_solves = lp_solves;
    return r;
  }
  HeuristicResult result{problem.allocation_from_reduced(reduced, sol.x, fixings),
                         0.0, lp_solves, lp::SolveStatus::Optimal};
  result.objective = problem.objective_of(result.allocation);
  return result;
}

ExactResult solve_exact(const SteadyStateProblem& problem,
                        const lp::MilpOptions& options) {
  const auto full = problem.build_full(/*integer_betas=*/true);
  const lp::MilpResult milp = lp::BranchAndBound(options).solve(full.model);
  ExactResult out{0.0, Allocation(problem.num_clusters()), milp.status, milp.nodes};
  if (milp.status != lp::SolveStatus::Optimal &&
      milp.status != lp::SolveStatus::NodeLimit)
    return out;
  if (milp.x.empty()) return out;
  out.allocation = problem.allocation_from_full(full, milp.x);
  out.objective = problem.objective_of(out.allocation);
  return out;
}

}  // namespace dls::core
