// The steady-state multi-application divisible-load scheduling problem
// (paper §3): platform + per-application payoffs + objective, and the
// construction of the linear programs that describe it.
//
// Two formulations are provided:
//
//   * build_full(): the paper's program (7) verbatim — explicit integer
//     beta variables, rows (7b)-(7e). With integrality enforced this is
//     the exact MLP; relaxed it is the "LP" comparator.
//
//   * build_reduced(): the relaxation with beta substituted out. In the
//     rational program beta_{k,l} appears only in (7d) and (7e) and
//     shrinking it is always feasible, so an optimal solution can take
//     beta = alpha / pbw(k,l) exactly (pbw = the route's per-connection
//     bottleneck bandwidth). Substituting turns (7d) into
//         sum_{routes (k,l) through link i} alpha_{k,l} / pbw(k,l)
//             <= max-connect(l_i)
//     and removes (7e) and all beta columns: K^2 fewer variables and K^2
//     fewer rows. Tests assert both formulations have equal optima.
//     Integer fixings beta_{k,l} = v (used by LPRR) enter the reduced
//     form as the bound alpha_{k,l} <= v*pbw plus a reduction of the
//     link budgets on that route.
//
// Clusters with payoff 0 host no application (paper §3.1); their alpha
// variables are fixed to zero but their CPU and gateway still serve
// other applications.
//
// Multi-load generalization (ISSUE 8): the problem is a platform-side
// route table plus a core::LoadSet. Each load j contributes one alpha
// variable per destination reachable from its source cluster; compute
// rows sum every load landing on a cluster, gateway and max-connect rows
// scale each load's terms by its data_ratio, and finite caps add one
// per-load throughput row. The paper's original formulation is the
// *canonical* load set (one load per cluster, ratio 1, no caps, see
// loads.hpp): for it the generalized builder enumerates variables and
// rows in exactly the original order with the original coefficients, so
// the emitted LP is identical to the single-load builder and the
// existing pivot-sequence oracles keep passing.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/allocation.hpp"
#include "core/loads.hpp"
#include "lp/model.hpp"
#include "platform/platform.hpp"

namespace dls::core {

enum class Objective {
  Sum,     ///< maximize sum_k payoff_k * alpha_k            (Eq. 5)
  MaxMin,  ///< maximize min over payoff_k > 0 of payoff_k * alpha_k (Eq. 6)
};

[[nodiscard]] std::string to_string(Objective o);

class SteadyStateProblem {
public:
  /// payoffs has one entry per cluster; payoff 0 = no application there.
  /// Builds the canonical load set (LoadSet::from_payoffs).
  SteadyStateProblem(const platform::Platform& plat, std::vector<double> payoffs,
                     Objective objective);

  /// General N-load form: any number of loads, any sources, per-load
  /// data ratios and caps. `loads` is validated against the platform.
  SteadyStateProblem(const platform::Platform& plat, LoadSet loads,
                     Objective objective);

  /// A copy with a different load set. Shares the platform route table;
  /// the per-load route bindings are rebuilt (O(N*K + links)).
  [[nodiscard]] SteadyStateProblem with_loads(LoadSet loads) const;

  /// Replaces the load weights (one per load) in place, keeping the load
  /// structure and both tables — the O(N), allocation-free path the
  /// multi-load rescheduler takes per event. Same validation as the
  /// constructor (finite, >= 0, at least one positive); on a throw the
  /// problem is unchanged.
  void set_load_weights(const std::vector<double>& weights);

  [[nodiscard]] const platform::Platform& plat() const { return *plat_; }
  /// The per-cluster payoff view of a canonical load set; throws for
  /// general load sets (use loads() there).
  [[nodiscard]] const std::vector<double>& payoffs() const {
    require(canonical_, "payoffs: only canonical (one-load-per-cluster) "
                        "problems have a payoff vector; use loads()");
    return payoffs_;
  }
  [[nodiscard]] const LoadSet& loads() const { return loads_; }
  [[nodiscard]] int num_loads() const { return loads_.size(); }
  /// True when the load set has the paper's one-load-per-cluster shape:
  /// load-route ids coincide with route ids and the legacy per-cluster
  /// APIs (payoffs, Allocation) apply.
  [[nodiscard]] bool is_canonical() const { return canonical_; }
  [[nodiscard]] Objective objective() const { return objective_; }
  [[nodiscard]] int num_clusters() const { return plat_->num_clusters(); }

  /// One entry per ordered cluster pair that can exchange load (including
  /// the local pairs k == l, which carry alpha(k,k)).
  struct Route {
    int k = -1;          ///< source cluster (application owner)
    int l = -1;          ///< destination cluster (computes the load)
    double pbw = 0.0;    ///< per-connection bottleneck bandwidth; +inf if no
                         ///< backbone link is traversed
    bool needs_beta = false;  ///< true iff remote and traverses >= 1 link
  };

  [[nodiscard]] const std::vector<Route>& routes() const { return table_->routes; }
  /// Index into routes() for (k, l), or -1 when the pair cannot exchange.
  [[nodiscard]] int route_id(int k, int l) const;
  /// For each platform link: the route ids whose path traverses it.
  [[nodiscard]] const std::vector<std::vector<int>>& routes_through_link() const {
    return table_->link_routes;
  }

  /// One LP column per (load, reachable destination). For canonical load
  /// sets load-route ids equal route ids.
  struct LoadRoute {
    int load = -1;   ///< index into loads()
    int route = -1;  ///< index into routes() (source = the load's source)
  };
  [[nodiscard]] const std::vector<LoadRoute>& load_routes() const {
    return ltable_->lroutes;
  }
  /// Index into load_routes() for (load j, destination l), or -1.
  [[nodiscard]] int load_route_id(int j, int l) const;

  /// A fixing pins beta of route `route` to the integer `value`.
  struct BetaFixing {
    int route = -1;
    int value = 0;
  };

  struct ReducedModel {
    lp::Model model;
    std::vector<int> alpha_var;  ///< per load-route id (== route id when canonical)
    int t_var = -1;              ///< MaxMin auxiliary; -1 for Sum
    /// True when beta fixings shaped this model (alpha bounds carry the
    /// pinned (7e) caps); such a model cannot be re-payoffed in place.
    bool has_fixings = false;
    /// Row index of each capacity constraint, for in-place re-pricing
    /// (update_reduced_capacities): (7b) per cluster, (7c) per cluster
    /// and (7d) per link, -1 where the builder emitted no row.
    std::vector<int> speed_row, gateway_row, maxcon_row;
  };
  [[nodiscard]] ReducedModel build_reduced(
      const std::vector<BetaFixing>& fixings = {}) const;

  /// Re-payoffs a fixing-free reduced model in place instead of
  /// rebuilding it: payoffs enter a Sum-objective model only through the
  /// alpha upper bounds (0 for idle clusters) and the objective
  /// coefficients, so the constraint rows — and any simplex warm-start
  /// capsule keyed on them — survive. Requires Objective::Sum: MaxMin
  /// grows one fairness row per active cluster, which reshapes the model.
  /// The online rescheduler patches one cached model per event with this
  /// instead of paying build_reduced's allocations thousands of times.
  /// Works for any load set (weights enter the same way payoffs do).
  ///
  /// Only loads whose weight differs (bit for bit) from the one the
  /// model holds in their first column are rewritten, so an arrival or
  /// departure costs one slot's columns, not every alpha column. That
  /// needs the model's alpha bounds and costs to have been written only
  /// by build_reduced and this function; the result then equals
  /// build_reduced() of this problem bit for bit.
  void update_reduced_payoffs(ReducedModel& reduced) const;

  /// Re-reads every route's per-connection bottleneck bandwidth from the
  /// platform after a capacity event (link bandwidth, max-connect,
  /// gateway or speed moved; the route set did not). The route table is
  /// copied, never mutated, and only when a value moved, so problems
  /// sharing it are unaffected. Returns whether any pbw changed.
  bool refresh_route_bandwidths();

  /// Re-prices a fixing-free reduced model in place after a capacity
  /// event, instead of rebuilding it: the (7b), (7c) and (7d) right-hand
  /// sides are re-read from the platform, and when `pbw_changed` every
  /// (7d) row's data_ratio / pbw terms are rewritten through
  /// lp::Model::set_row. Call refresh_route_bandwidths() first. The
  /// result equals build_reduced() of a fresh problem over the changed
  /// platform bit for bit, so the simplex sees the same model either way.
  void update_reduced_capacities(ReducedModel& reduced, bool pbw_changed) const;

  struct FullModel {
    lp::Model model;
    std::vector<int> alpha_var;  ///< per load-route id
    std::vector<int> beta_var;   ///< per load-route id; -1 where needs_beta is false
    int t_var = -1;
    bool integer_betas = false;  ///< whether betas were integer-marked
  };
  /// integer_betas = true yields the exact MLP (solve with BranchAndBound);
  /// false yields the paper's "LP" relaxation with explicit betas.
  [[nodiscard]] FullModel build_full(bool integer_betas) const;

  /// Reads an allocation out of a reduced-model solution. Free routes get
  /// the canonical beta = alpha / pbw (fractional in general); fixed
  /// routes get their fixed integer value.
  [[nodiscard]] Allocation allocation_from_reduced(
      const ReducedModel& reduced, const std::vector<double>& x,
      const std::vector<BetaFixing>& fixings = {}) const;

  /// Reads an allocation out of a full-model solution.
  [[nodiscard]] Allocation allocation_from_full(const FullModel& full,
                                                const std::vector<double>& x) const;

  /// Objective value of an allocation under this problem's objective.
  /// MaxMin with no positive-payoff application is defined as 0.
  [[nodiscard]] double objective_of(const Allocation& alloc) const;

private:
  /// Route structure derived from the platform alone. Immutable once
  /// built and shared between problems over the same platform
  /// (with_loads), so deriving a problem does not re-copy K^2 routes
  /// and the per-link incidence lists.
  struct RouteTable {
    std::vector<Route> routes;
    std::vector<int> route_id;  // dense K*K -> route id or -1
    std::vector<std::vector<int>> link_routes;
  };

  /// Per-load route bindings derived from (load sources, route table).
  /// Weight changes don't touch it, so set_load_weights keeps it;
  /// with_loads rebuilds it against the shared route table.
  struct LoadTable {
    std::vector<LoadRoute> lroutes;   // load-major, ascending l per load
    std::vector<int> lroute_begin;    // load j's ids: [begin[j], begin[j+1])
    std::vector<int> lroute_id;  // dense N*K -> load-route id or -1
    std::vector<std::vector<int>> link_lroutes;
    std::vector<std::vector<int>> loads_at;  // cluster -> load ids sourced there
  };

  void build_load_table();

  const platform::Platform* plat_;
  std::vector<double> payoffs_;  ///< weight view; only kept canonical
  LoadSet loads_;
  bool canonical_ = false;
  Objective objective_;
  std::shared_ptr<const RouteTable> table_;
  std::shared_ptr<const LoadTable> ltable_;
};

/// Checks an allocation against equations (7a)-(7g) plus the structural
/// rules (no load on missing routes, none from payoff-0 clusters).
struct ValidationReport {
  bool ok = true;
  std::vector<std::string> violations;
};
[[nodiscard]] ValidationReport validate_allocation(const SteadyStateProblem& problem,
                                                   const Allocation& alloc,
                                                   double eps = 1e-6,
                                                   bool require_integer_betas = true);

}  // namespace dls::core
