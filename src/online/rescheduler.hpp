// Warm-started rescheduling for the online engines. One class,
// MultiLoadRescheduler, re-solves the steady-state problem at every
// arrival, departure or platform event and reuses work from the
// previous solve. Callers hand it the active set, one ActiveLoad per
// running application. The core that constructs it picks one of two
// problem shapes:
//
//   * single-load mode (ReschedulerOptions; the paper's model, behind
//     `dls online`): at most one load per cluster, so the slot universe
//     is one slot per cluster — exactly the canonical LP (7), with idle
//     clusters as zero-weight columns — under core::Objective Sum or
//     MaxMin. The paper's heuristics (Method) solve it: Greedy, LPR,
//     LPRG or the LP bound;
//   * multi-load mode (MultiReschedulerOptions; behind `dls online
//     --loads` and `dls serve`): every running application is a load in
//     ONE shared LP. Under WeightedSum and PropFair the LP spans a slot
//     universe that grows geometrically with a cluster's concurrency;
//     under MaxMin it spans the active set alone.
//
// Either way the rescheduler owns the cached problem, the reduced model,
// the simplex capsule and arena, and the platform patches:
//
//   * LP-based solves warm-start the simplex from the previous event's
//     capsule (lp::WarmState). Warm and cold paths run the same solver
//     to optimality on the same model, so the *LP relaxation objective*
//     is identical either way (Method::LpBound matches cold exactly);
//     the rounding heuristics inherit that value but not the vertex,
//     and a degenerate optimum can round to a slightly different valid
//     allocation than the cold path's vertex would.
//   * The greedy method can seed its residual-capacity pass from the
//     previous allocation (core::run_greedy_warm) under
//     WarmPolicy::Always; since greedy solves no LP, WarmPolicy::Auto
//     runs it cold — a cold greedy is already cheap and the seeded
//     variant trades objective for allocation stability.
//
// Warm-start invalidation (the "mix changed too much" rules), both
// enforced by the simplex itself:
//   1. the saved basis must still fit the model — over a slot universe
//      (any Sum objective) arrivals and departures only move column
//      bounds and costs, so this always holds between slot growths, and
//      a growth, which only adds columns, gets the basis remapped onto
//      the grown columns (see MultiLoadRescheduler); a MaxMin model adds
//      one fairness row per active load and therefore reshapes whenever
//      the active count changes (warm-starts then only survive paired
//      arrival+departure events);
//   2. the basis must still be primal feasible — a departure that leaves
//      load allocated to now-forbidden routes is repaired inside the
//      solver (composite bound phase 1), which falls back to a cold
//      start when the repair fails.
// The rescheduler itself drops the capsule only under WarmPolicy::Never
// and on topology events.
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

/// Single-load mode: the heuristic, the objective of LP (7) and their
/// controls.
struct ReschedulerOptions {
  Method method = Method::Greedy;
  core::Objective objective = core::Objective::MaxMin;
  WarmPolicy warm = WarmPolicy::Auto;
  core::GreedyOptions greedy;
};

/// One running application in the rescheduled LP.
struct ActiveLoad {
  int id = -1;          ///< caller's stable identifier (e.g. app id)
  int cluster = -1;     ///< home cluster holding the load's data
  double weight = 1.0;  ///< objective weight (the payoff); must be positive
};

/// Multi-load mode: the shared-LP objective and its controls.
struct MultiReschedulerOptions {
  /// Objective plus LP/PropFair controls (core::solve_loads). The
  /// rescheduler disables dual extraction in either mode.
  core::MultiLoadSolveOptions solve;
  WarmPolicy warm = WarmPolicy::Auto;
};

/// Outcome of one reschedule. `rate[i]` is the drain rate of `loads[i]`
/// from the call. `warm` reports whether previous-solve state was
/// actually reused (a warm attempt the solver rejected counts cold).
struct MultiReschedule {
  std::vector<double> rate;
  double objective = 0.0;
  bool warm = false;
  /// True when the warm start went through the basis-repair path: the
  /// constraint matrix changed under the capsule (a capacity event
  /// re-priced it, or a slot growth added columns) and its statuses were
  /// refactorized against the new model instead of being restored whole
  /// (lp::WarmKind::Basis). Always false for greedy and for cold solves.
  bool repaired = false;
  double seconds = 0.0;    ///< wall time of this solve
  int lp_iterations = 0;   ///< simplex pivots (0 for greedy)
  int lp_solves = 0;       ///< 0 for greedy; > 1 only under PropFair
};

/// The online rescheduler (see the header comment). Arrivals and
/// departures become column patches on one cached LP instead of fresh
/// solves: an arrival claims an idle slot of its home cluster and a
/// departure releases one, and both only move the slot's column bounds
/// and objective coefficients. The constraint matrix, and therefore the
/// lp::WarmState capsule keyed on its fingerprint, survive every such
/// event whole. Platform capacity events re-price the matrix under the
/// capsule, which the simplex then repairs as a statuses-only start.
/// Slot growth only adds columns, so the capsule's statuses move to the
/// grown LP's columns of the same (slot, destination) and are repaired
/// the same way; only topology events force a cold start.
class MultiLoadRescheduler {
public:
  MultiLoadRescheduler(const platform::Platform& plat,
                       MultiReschedulerOptions options);
  /// Single-load mode: the active set holds at most one load per
  /// cluster, solved by options.method over the canonical problem.
  MultiLoadRescheduler(const platform::Platform& plat,
                       const ReschedulerOptions& options);

  /// Solves the LP for the given active set (any order, unique
  /// positive-weight ids; single-load mode: distinct clusters) and
  /// refreshes warm state for the next call. Throws dls::Error on
  /// solver failure or an empty/invalid set.
  [[nodiscard]] MultiReschedule reschedule(const std::vector<ActiveLoad>& loads);

  /// Drops warm state and slot assignments; the next call solves cold.
  void reset();

  /// Tells the rescheduler the platform's capacities changed under it
  /// (bandwidth/max-connect/gateway/speed rescale — the route set is
  /// intact). The cached problem and reduced model are patched in place
  /// (SteadyStateProblem::update_reduced_capacities), bit-identical to a
  /// rebuild; the capsule is kept for a whole (pure rhs/bound moves keep
  /// the matrix fingerprint) or repaired warm start. The greedy seed
  /// allocation is dropped: reseeding it could overfill shrunk
  /// capacities.
  void platform_capacity_changed();

  /// Tells the rescheduler the platform's topology changed (routes
  /// added/dropped, clusters joined/left): the model reshapes, so all
  /// warm state and the slot universe reset and the next solve runs
  /// cold.
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
  /// Total load slots in the current LP (0 before the first solve);
  /// observability for tests and benches.
  [[nodiscard]] int slot_count() const { return total_slots_; }
  /// The problem the last reschedule solved. In single-load mode this is
  /// the canonical problem, from which the Simulated rate model
  /// reconstructs its periodic schedule.
  [[nodiscard]] const core::SteadyStateProblem& problem() const;
  /// Single-load mode: the cluster allocation of the last reschedule.
  [[nodiscard]] const core::Allocation& allocation() const;

private:
  void seat(const std::vector<ActiveLoad>& loads);
  void rebuild_slots(const std::vector<int>& needed);
  /// Remaps the capsule's statuses from the current (pre-growth) slot
  /// problem onto `grown`, given the old slot -> load ids and cluster
  /// bases, once seat() has seated the grown universe.
  void carry_basis(const core::SteadyStateProblem& grown,
                   const std::vector<int>& old_app,
                   const std::vector<int>& old_base);
  void derive_active_problem(const std::vector<ActiveLoad>& loads);
  /// Whether the solve reads reduced_cache_ (see its comment).
  [[nodiscard]] bool caches_reduced() const;
  [[nodiscard]] MultiReschedule solve_single(const std::vector<ActiveLoad>& loads,
                                             core::LpWarmStart& warm);
  [[nodiscard]] MultiReschedule solve_multi(const std::vector<ActiveLoad>& loads,
                                            core::LpWarmStart& warm);

  const platform::Platform* plat_;
  MultiReschedulerOptions options_;
  /// Single-load mode's method, objective and greedy controls; empty in
  /// multi-load mode. (The solver runs on options_.solve.lp.)
  std::optional<ReschedulerOptions> single_;
  /// Slot universe (every mode but multi-load MaxMin): per-cluster slot
  /// counts, the cluster-major base index of each cluster's slots, and
  /// occupancy.
  std::vector<int> slots_per_cluster_;
  std::vector<int> slot_base_;
  int total_slots_ = 0;
  std::unordered_map<int, int> slot_of_;  // load id -> global slot index
  std::vector<int> slot_app_;             // global slot -> load id or -1
  /// The current problem: the slot problem, re-weighted in place per
  /// event with set_load_weights and re-derived with with_loads when the
  /// slot universe grows; under multi-load MaxMin the active-set problem,
  /// re-derived per event with with_loads (sharing the route table).
  std::optional<core::SteadyStateProblem> problem_;
  /// Fixing-free reduced model of a Sum-objective slot problem, patched
  /// per event with update_reduced_payoffs (only the seated or released
  /// slots' columns change). Kept only while the solve reads it: LP
  /// methods under single-load Sum and multi-load WeightedSum.
  std::optional<core::SteadyStateProblem::ReducedModel> reduced_cache_;
  lp::WarmState warm_state_;
  /// Simplex working storage reused across every event's LP solves:
  /// after the first event the solver's scratch allocates nothing (the
  /// lp::Solution it hands back still carries its own x and basis).
  lp::SolveArena arena_;
  /// Per-event scratch of reschedule() and seat(), reused across events:
  /// sorted ids (duplicate check), loads per cluster, slots still
  /// occupied, and slot weights.
  std::vector<int> ids_, needed_;
  std::vector<char> present_;
  std::vector<double> weights_;
  /// Single-load mode: the last allocation, the greedy seed under
  /// WarmPolicy::Always.
  std::optional<core::Allocation> allocation_;
  Stats stats_;
};

}  // namespace dls::online
