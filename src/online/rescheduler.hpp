// Adaptive steady-state rescheduling for the online engine.
//
// Every arrival or departure changes the payoff vector of the
// steady-state problem (clusters host at most one active application;
// an idle cluster has payoff 0). The AdaptiveRescheduler re-solves the
// problem at each such event, reusing work from the previous solve:
//
//   * LP-based methods (LPR, LPRG, LP bound) warm-start the simplex from
//     the previous event's optimal basis (core::LpWarmStart). Both the
//     warm and the cold path run the same solver to optimality on the
//     same model, so the *LP relaxation objective* is provably identical
//     either way (Method::LpBound therefore matches cold exactly); the
//     rounding heuristics inherit that value but not the vertex, and a
//     degenerate optimum can round to a slightly different valid
//     allocation than the cold path's vertex would.
//   * The greedy method can seed its residual-capacity pass from the
//     previous allocation (core::run_greedy_warm) under
//     WarmPolicy::Always; since greedy solves no LP, WarmPolicy::Auto
//     runs it cold — a cold greedy is already cheap and the seeded
//     variant trades objective for allocation stability.
//
// Warm-start invalidation (the "mix changed too much" rule):
//   1. the number of clusters whose activity flipped since the last
//      solve must not exceed max_support_change (one normal event flips
//      exactly one), and
//   2. the saved basis must still fit the model — under Objective::Sum
//      the model shape is payoff-independent so this always holds, while
//      Objective::MaxMin adds one fairness row per *active* cluster and
//      therefore reshapes the model whenever the active count changes
//      (warm-starts then only survive paired arrival+departure events);
//   3. the basis must still be primal feasible — a departure that leaves
//      load allocated to now-forbidden routes fails this check inside
//      the solver and falls back to a cold start automatically.
// Rules 2 and 3 are enforced by the simplex itself; the rescheduler only
// applies rule 1 and the bookkeeping.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/heuristics.hpp"
#include "core/multi_solve.hpp"
#include "core/problem.hpp"
#include "platform/platform.hpp"

namespace dls::online {

enum class Method {
  Greedy,   ///< paper §5.1 G: no LP, fastest, always valid
  Lpr,      ///< one LP + round-down
  Lprg,     ///< one LP + round-down + greedy reclaim (paper's best cheap mix)
  LpBound,  ///< rational relaxation: fluid rates, fractional betas
};

[[nodiscard]] const char* to_string(Method method);

enum class WarmPolicy {
  Auto,    ///< warm-start when the invalidation rules allow (greedy: cold)
  Never,   ///< always cold-solve (the reference behaviour)
  Always,  ///< additionally seed the greedy from the previous allocation
};

struct ReschedulerOptions {
  Method method = Method::Greedy;
  core::Objective objective = core::Objective::MaxMin;
  WarmPolicy warm = WarmPolicy::Auto;
  /// Invalidation rule 1: cold-solve when more than this many clusters
  /// changed between active and idle since the previous solve.
  int max_support_change = 4;
  lp::SimplexOptions lp;
  core::GreedyOptions greedy;
};

/// One reschedule outcome. `warm` reports whether previous-solve state
/// was actually reused (a warm attempt the solver rejected counts cold).
struct Reschedule {
  core::Allocation allocation;
  double objective = 0.0;
  bool warm = false;
  /// True when the warm start went through the basis-repair path: the
  /// platform changed under the capsule (capacity event) and its
  /// statuses were refactorized against the rebuilt model instead of
  /// being restored whole (lp::WarmKind::Basis). Always false for
  /// greedy and for cold solves.
  bool repaired = false;
  double seconds = 0.0;    ///< wall time of this solve
  int lp_iterations = 0;   ///< simplex pivots (0 for greedy)
};

class AdaptiveRescheduler {
public:
  AdaptiveRescheduler(const platform::Platform& plat, ReschedulerOptions options);

  /// Solves the steady-state problem for the given payoff vector (one
  /// entry per cluster, 0 = idle) and records warm state for the next
  /// call. Throws dls::Error if the underlying method fails.
  [[nodiscard]] Reschedule reschedule(const std::vector<double>& payoffs);

  /// Drops all warm state; the next reschedule solves cold.
  void reset();

  /// Tells the rescheduler the platform's capacities changed under it
  /// (bandwidth/max-connect/gateway/speed rescale — the route set is
  /// intact). The cached problem and reduced model are patched in place
  /// (SteadyStateProblem::update_reduced_capacities); the simplex
  /// capsule is kept so the solve can warm-start whole (pure
  /// rhs/bound moves keep the matrix fingerprint) or repair the carried
  /// basis against the re-priced matrix (lp::SimplexOptions::warm_repair,
  /// enabled here). The previous greedy allocation is dropped: reseeding
  /// it could overfill shrunk capacities.
  void platform_capacity_changed();

  /// Tells the rescheduler the platform's topology changed (routes
  /// added/dropped, clusters joined/left): the model reshapes, so all
  /// warm state is dropped and the next solve runs cold.
  void platform_topology_changed();

  struct Stats {
    int warm_solves = 0;
    int cold_solves = 0;
    /// Warm solves that took the basis-repair path (subset of warm).
    int repaired_solves = 0;
    double warm_seconds = 0.0;
    double cold_seconds = 0.0;
    std::int64_t warm_iterations = 0;
    std::int64_t cold_iterations = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const ReschedulerOptions& options() const { return options_; }

private:
  const platform::Platform* plat_;
  ReschedulerOptions options_;
  /// Route tables are payoff-independent; built on the first reschedule
  /// and re-payoffed (SteadyStateProblem::with_payoffs) on every event.
  std::optional<core::SteadyStateProblem> base_problem_;
  /// Factorized-basis capsule reused across LP solves. Under
  /// Objective::Sum arrivals and departures only move variable bounds
  /// and costs, so the capsule survives every event; under MaxMin the
  /// model reshapes with the active count and the solver's fingerprint
  /// check rejects it (rule 2 of the invalidation policy).
  lp::WarmState warm_state_;
  /// Simplex working storage reused across every event's LP solves —
  /// after the first event a reschedule allocates nothing in the solver.
  lp::SolveArena arena_;
  /// Cached fixing-free reduced model, patched per event with
  /// update_reduced_payoffs (Sum objective only; MaxMin rebuilds).
  std::optional<core::SteadyStateProblem::ReducedModel> reduced_cache_;
  std::optional<core::Allocation> prev_allocation_;
  std::vector<double> prev_payoffs_;
  Stats stats_;
};

/// One running application in the shared multi-load LP.
struct ActiveLoad {
  int id = -1;          ///< caller's stable identifier (e.g. app id)
  int cluster = -1;     ///< home cluster holding the load's data
  double weight = 1.0;  ///< objective weight; must be positive
};

struct MultiReschedulerOptions {
  /// Objective plus LP/PropFair controls (core::solve_loads). The
  /// rescheduler disables dual extraction and enables warm_repair, like
  /// the single-load path.
  core::MultiLoadSolveOptions solve;
  WarmPolicy warm = WarmPolicy::Auto;
};

/// Outcome of one shared-LP reschedule. `rate[i]` is the drain rate of
/// `loads[i]` from the call.
struct MultiReschedule {
  std::vector<double> rate;
  double objective = 0.0;
  bool warm = false;
  bool repaired = false;
  double seconds = 0.0;
  int lp_iterations = 0;
  int lp_solves = 0;  ///< > 1 only under PropFair
};

/// The multi-load counterpart of AdaptiveRescheduler (ISSUE 8): all
/// running applications are loads in ONE shared LP, and arrivals and
/// departures become column patches on it instead of N independent
/// solves.
///
/// Under WeightedSum and PropFair the LP is built over a fixed universe
/// of per-cluster load *slots* (grown geometrically when a cluster's
/// concurrency outgrows it, which rebuilds the model and solves cold
/// once). An arrival claims an idle slot of its home cluster; a
/// departure releases one. Both only move the slot's column bounds and
/// objective coefficients — the constraint matrix, and therefore the
/// lp::WarmState capsule keyed on its fingerprint, survive every event
/// whole. Platform capacity events re-price the matrix under the
/// capsule, which warm_repair turns into a statuses-only repair; only
/// topology events (and slot growth) force a cold start.
///
/// MaxMin reshapes the model with the active set (one fairness row per
/// running load), so it rebuilds the LP per event and warm-starts only
/// when consecutive events keep the shape (paired arrival+departure).
class MultiLoadRescheduler {
public:
  using Stats = AdaptiveRescheduler::Stats;

  MultiLoadRescheduler(const platform::Platform& plat,
                       MultiReschedulerOptions options);

  /// Solves the shared LP for the given active set (any order, unique
  /// positive-weight ids) and refreshes warm state for the next call.
  /// Throws dls::Error on solver failure or an empty/invalid set.
  [[nodiscard]] MultiReschedule reschedule(const std::vector<ActiveLoad>& loads);

  /// Drops warm state and slot assignments; the next call solves cold.
  void reset();

  /// Capacity rescale under the model: the cached problems and reduced
  /// model are patched in place, bit-identical to a rebuild; the capsule
  /// is kept for a whole or repaired start.
  void platform_capacity_changed();

  /// Topology change: everything (including the slot universe) resets.
  void platform_topology_changed();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Total load slots in the current shared LP (0 before the first
  /// solve); observability for tests and benches.
  [[nodiscard]] int slot_count() const { return total_slots_; }

private:
  void rebuild_slots(const std::vector<int>& needed);
  [[nodiscard]] MultiReschedule solve_shared(const std::vector<ActiveLoad>& loads);
  [[nodiscard]] MultiReschedule solve_maxmin(const std::vector<ActiveLoad>& loads);

  const platform::Platform* plat_;
  MultiReschedulerOptions options_;
  /// Slot universe (WeightedSum/PropFair): per-cluster slot counts, the
  /// cluster-major base index of each cluster's slots, and occupancy.
  std::vector<int> slots_per_cluster_;
  std::vector<int> slot_base_;
  int total_slots_ = 0;
  std::unordered_map<int, int> slot_of_;  // load id -> global slot index
  std::vector<int> slot_app_;             // global slot -> load id or -1
  /// Slot problem (Objective::Sum), re-weighted per event with
  /// with_load_weights and re-derived with with_loads when the slot
  /// universe grows; MaxMin keeps its own per-event problem to share
  /// the route table across with_loads calls.
  std::optional<core::SteadyStateProblem> problem_;
  std::optional<core::SteadyStateProblem> maxmin_problem_;
  std::optional<core::SteadyStateProblem::ReducedModel> reduced_cache_;
  lp::WarmState warm_state_;
  lp::SolveArena arena_;
  Stats stats_;
};

}  // namespace dls::online
