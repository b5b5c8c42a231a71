// The paper's §5 heuristics for STEADY-STATE-DIVISIBLE-LOAD, plus the LP
// upper bound used as the comparator in §6 and an exact MILP solve for
// small instances.
//
//   G     run_greedy       resource-by-resource greedy (§5.1)
//   LPR   run_lpr          relaxation + round all betas down (§5.2.1)
//   LPRG  run_lprg         LPR, then G on the residual capacities (§5.2.2)
//   LPRR  run_lprr         iterative randomized rounding (§5.2.3);
//                          options.equal_probability switches to the
//                          up/down-with-probability-1/2 variant the paper
//                          reports as much worse (§6.2)
//   LP    lp_upper_bound   rational relaxation (not a valid allocation:
//                          betas are fractional); upper-bounds the optimum
//   MLP   solve_exact      branch-and-bound on the full program (7)
//
// LP, LPR and LPRG all start from the same rational relaxation: each
// takes a Relaxation from solve_relaxation, so a caller that runs
// several of them — the §6 experiment, `dls solve`, the online
// rescheduler — pays for one solve.
//
// Every heuristic returns a *valid* allocation (integral betas, all of
// equations (7) satisfied), which tests enforce via validate_allocation.
#pragma once

#include <cstdint>
#include <optional>

#include "core/allocation.hpp"
#include "core/problem.hpp"
#include "lp/milp.hpp"
#include "lp/simplex.hpp"
#include "support/rng.hpp"

namespace dls::core {

struct HeuristicResult {
  Allocation allocation;
  double objective = 0.0;  ///< problem.objective_of(allocation)
  int lp_solves = 0;       ///< number of LP relaxations solved
  lp::SolveStatus status = lp::SolveStatus::Optimal;
  int lp_iterations = 0;   ///< total simplex pivots across those solves
};

/// Simplex warm-start context threaded through the LP-based heuristics
/// (the core hook behind the online rescheduler's adaptive re-solves).
/// `state` is a persistent capsule (lp::WarmState) that seeds the
/// relaxation solve when it fits the model and is still primal feasible
/// (the solver otherwise ignores it) and is refreshed from the solve's
/// optimal basis for the next event. The relaxation's objective value
/// is identical warm or cold (both solve to optimality); the *vertex*
/// is not guaranteed to be, so the rounded allocation of lpr/lprg may
/// differ between the two paths on degenerate optima.
struct LpWarmStart {
  lp::WarmState* state = nullptr;
  /// Optional solve arena (lp::SolveArena, typically
  /// lp::BatchSolver::local_arena()): reuses simplex working storage
  /// and the shared column-structure cache across solves. Pure
  /// performance — results are bit-identical with or without it.
  lp::SolveArena* arena = nullptr;
  /// Optional pre-built fixing-free reduced model for this problem
  /// (typically one cached instance patched per event with
  /// SteadyStateProblem::update_reduced_payoffs). When null the
  /// heuristic builds its own.
  const SteadyStateProblem::ReducedModel* reduced = nullptr;
  /// Set by the solve: how the seed was used (Cold = not at all;
  /// lp::WarmKind::Basis = the capsule was repaired across a
  /// constraint-matrix change).
  lp::WarmKind kind = lp::WarmKind::Cold;
};

/// The one way an LpWarmStart reaches the simplex: solves `model`
/// through the optional capsule and arena of `warm` (which may be null)
/// and records in warm->kind how the seed was used.
[[nodiscard]] lp::Solution solve_warm(const lp::Model& model,
                                      const lp::SimplexOptions& lp_options,
                                      LpWarmStart* warm);

/// What the greedy does when an application picks its local cluster but
/// the paper's step-5 cap (the largest amount another application could
/// have run there) is zero.
enum class LocalExhaustPolicy {
  /// Take all remaining local speed: nobody else can reach this cluster,
  /// so reserving it is pure waste. Our default (strictly dominates).
  TakeRemaining,
  /// Drop the application from the candidate list, leaving the residual
  /// speed unused — the literal reading of the paper's step 5, which
  /// allocates 0 (and would otherwise loop forever). Kept as an ablation.
  DropApplication,
};

struct GreedyOptions {
  LocalExhaustPolicy local_exhaust = LocalExhaustPolicy::TakeRemaining;
};

/// The greedy heuristic G. Deterministic; solves no LP.
[[nodiscard]] HeuristicResult run_greedy(const SteadyStateProblem& problem,
                                         const GreedyOptions& options = {});

/// Warm-started greedy: seeds the residual-capacity pass from `previous`
/// restricted to the problem's current applications (load sent by
/// clusters whose payoff is now 0 is dropped, freeing their capacities),
/// then lets the greedy loop fill what the restriction released. The
/// result is a valid allocation whenever `previous` was one for the same
/// platform, but — unlike the simplex basis warm start — it is NOT
/// guaranteed to match run_greedy's cold objective: the seed pins the
/// surviving applications' shares. Kept for rescheduling policies that
/// value allocation stability over re-optimization.
[[nodiscard]] HeuristicResult run_greedy_warm(const SteadyStateProblem& problem,
                                              const Allocation& previous,
                                              const GreedyOptions& options = {});

/// The rational relaxation of program (7), solved once: the fixing-free
/// reduced model and the simplex's solution on it. The model is owned,
/// or borrowed from LpWarmStart::reduced (which must then outlive this).
struct Relaxation {
  std::optional<SteadyStateProblem::ReducedModel> own;
  const SteadyStateProblem::ReducedModel* borrowed = nullptr;
  lp::Solution solution;

  [[nodiscard]] const SteadyStateProblem::ReducedModel& reduced() const {
    return own ? *own : *borrowed;
  }
};

/// Solves the relaxation, threading the optional warm-start capsule and
/// arena through the simplex (which consumes and refreshes the capsule).
[[nodiscard]] Relaxation solve_relaxation(const SteadyStateProblem& problem,
                                          const lp::SimplexOptions& lp_options = {},
                                          LpWarmStart* warm = nullptr);

/// LPR: the relaxation of `problem`, betas rounded down, alphas clipped
/// to the rounded bandwidth. A non-optimal relaxation yields an empty
/// allocation carrying its status.
[[nodiscard]] HeuristicResult run_lpr(const SteadyStateProblem& problem,
                                      const Relaxation& relaxation);

/// LPRG: LPR, then the greedy pass reclaims the rounding losses
/// (failure as run_lpr).
[[nodiscard]] HeuristicResult run_lprg(const SteadyStateProblem& problem,
                                       const Relaxation& relaxation,
                                       const GreedyOptions& greedy_options = {});

struct LprrOptions {
  /// false: round up with probability frac(beta) (the paper's LPRR);
  /// true: round up/down with probability 1/2 each (the ablation variant).
  bool equal_probability = false;
  /// true (paper's LPRR, ~K^2 LP solves): re-solve the relaxation after
  /// every fixing so later roundings compensate earlier ones. false:
  /// classical one-shot randomized rounding (Motwani-Naor-Raghavan
  /// style): one relaxation solve, every beta rounded from it, one final
  /// clean-up solve. The ablation bench shows the re-solve is what makes
  /// equal-probability rounding survivable.
  bool resolve_between_fixings = true;
  /// Optional solve arena shared across LPRR's ~K^2 relaxation solves
  /// (same contract as LpWarmStart::arena: faster, bit-identical).
  lp::SolveArena* arena = nullptr;
};

/// LPRR: one LP re-solve per fixed route (~K^2 solves); rounding up is
/// demoted to rounding down whenever it would exceed a link's residual
/// max-connect, so the result is always feasible.
[[nodiscard]] HeuristicResult run_lprr(const SteadyStateProblem& problem, Rng& rng,
                                       const LprrOptions& options = {});

struct LpBoundResult {
  double objective = 0.0;
  Allocation allocation;  ///< fractional betas: NOT a valid allocation
  lp::SolveStatus status = lp::SolveStatus::Optimal;
  int iterations = 0;
};

/// The "LP" comparator: the optimum of the solved rational relaxation
/// of `problem`.
[[nodiscard]] LpBoundResult lp_upper_bound(const SteadyStateProblem& problem,
                                           const Relaxation& relaxation);

struct ExactResult {
  double objective = 0.0;
  Allocation allocation;
  lp::SolveStatus status = lp::SolveStatus::Infeasible;
  std::int64_t nodes = 0;
};

/// Exact mixed solve of program (7); exponential — small instances only.
[[nodiscard]] ExactResult solve_exact(const SteadyStateProblem& problem,
                                      const lp::MilpOptions& options = {});

}  // namespace dls::core
