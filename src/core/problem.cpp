#include "core/problem.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

#include "lp/types.hpp"

namespace dls::core {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

std::string to_string(Objective o) {
  return o == Objective::Sum ? "SUM" : "MAXMIN";
}

namespace {
LoadSet payoff_loads(const platform::Platform& plat,
                     const std::vector<double>& payoffs) {
  require(static_cast<int>(payoffs.size()) == plat.num_clusters(),
          "SteadyStateProblem: one payoff per cluster required");
  return LoadSet::from_payoffs(payoffs);
}
}  // namespace

SteadyStateProblem::SteadyStateProblem(const platform::Platform& plat,
                                       std::vector<double> payoffs,
                                       Objective objective)
    : SteadyStateProblem(plat, payoff_loads(plat, payoffs), objective) {}

SteadyStateProblem::SteadyStateProblem(const platform::Platform& plat,
                                       LoadSet loads, Objective objective)
    : plat_(&plat), loads_(std::move(loads)), objective_(objective) {
  const int n = plat.num_clusters();
  loads_.validate(n);
  canonical_ = loads_.canonical(n);
  if (canonical_) payoffs_ = loads_.weights();

  auto table = std::make_shared<RouteTable>();
  table->route_id.assign(static_cast<std::size_t>(n) * n, -1);
  table->link_routes.assign(plat.num_links(), {});
  for (int k = 0; k < n; ++k) {
    for (int l = 0; l < n; ++l) {
      if (!plat.has_route(k, l)) continue;
      Route r;
      r.k = k;
      r.l = l;
      r.pbw = plat.route_bottleneck_bw(k, l);
      r.needs_beta = k != l && !plat.route(k, l).empty();
      const int id = static_cast<int>(table->routes.size());
      table->route_id[static_cast<std::size_t>(k) * n + l] = id;
      table->routes.push_back(r);
      if (k != l)
        for (platform::LinkId li : plat.route(k, l))
          table->link_routes[li].push_back(id);
    }
  }
  table_ = std::move(table);
  build_load_table();
}

void SteadyStateProblem::build_load_table() {
  const int n = plat_->num_clusters();
  const int num_loads = loads_.size();
  const RouteTable& table = *table_;
  auto lt = std::make_shared<LoadTable>();
  lt->lroute_id.assign(static_cast<std::size_t>(num_loads) * n, -1);
  lt->link_lroutes.assign(plat_->num_links(), {});
  lt->loads_at.assign(n, {});
  lt->lroute_begin.assign(num_loads + 1, 0);
  // Count first, so every list is reserved exactly: a load sourced at
  // cluster c owns one load-route per route leaving c, and a link
  // carries each route through it once per load sourced at the route's
  // source.
  std::vector<int> sourced(n, 0), leaving(n, 0);
  for (const LoadSpec& load : loads_.loads) ++sourced[load.source];
  for (const Route& route : table.routes) ++leaving[route.k];
  std::size_t num_lroutes = 0;
  for (int c = 0; c < n; ++c) {
    lt->loads_at[c].reserve(sourced[c]);
    num_lroutes += static_cast<std::size_t>(sourced[c]) * leaving[c];
  }
  lt->lroutes.reserve(num_lroutes);
  for (platform::LinkId li = 0; li < plat_->num_links(); ++li) {
    std::size_t through = 0;
    for (const int id : table.link_routes[li]) through += sourced[table.routes[id].k];
    lt->link_lroutes[li].reserve(through);
  }
  for (int j = 0; j < num_loads; ++j) {
    lt->lroute_begin[j] = static_cast<int>(lt->lroutes.size());
    const int src = loads_.loads[j].source;
    lt->loads_at[src].push_back(j);
    for (int l = 0; l < n; ++l) {
      const int r = table.route_id[static_cast<std::size_t>(src) * n + l];
      if (r < 0) continue;
      const int id = static_cast<int>(lt->lroutes.size());
      lt->lroute_id[static_cast<std::size_t>(j) * n + l] = id;
      lt->lroutes.push_back({j, r});
      if (src != l)
        for (platform::LinkId li : plat_->route(src, l))
          lt->link_lroutes[li].push_back(id);
    }
  }
  lt->lroute_begin[num_loads] = static_cast<int>(lt->lroutes.size());
  ltable_ = std::move(lt);
}

SteadyStateProblem SteadyStateProblem::with_loads(LoadSet loads) const {
  loads.validate(num_clusters());
  SteadyStateProblem copy = *this;
  copy.loads_ = std::move(loads);
  copy.canonical_ = copy.loads_.canonical(num_clusters());
  copy.payoffs_ = copy.canonical_ ? copy.loads_.weights() : std::vector<double>{};
  copy.build_load_table();
  return copy;
}

void SteadyStateProblem::set_load_weights(const std::vector<double>& weights) {
  require(weights.size() == loads_.loads.size(),
          "set_load_weights: one weight per load required");
  bool any_positive = false;
  for (const double w : weights) {
    require(w >= 0.0 && std::isfinite(w),
            "set_load_weights: weights must be finite and >= 0");
    any_positive |= w > 0.0;
  }
  require(any_positive, "set_load_weights: at least one positive weight required");
  for (std::size_t j = 0; j < weights.size(); ++j) loads_.loads[j].weight = weights[j];
  if (canonical_) payoffs_ = weights;
}

int SteadyStateProblem::route_id(int k, int l) const {
  const int n = num_clusters();
  require(k >= 0 && k < n && l >= 0 && l < n, "route_id: cluster out of range");
  return table_->route_id[static_cast<std::size_t>(k) * n + l];
}

int SteadyStateProblem::load_route_id(int j, int l) const {
  const int n = num_clusters();
  require(j >= 0 && j < num_loads() && l >= 0 && l < n,
          "load_route_id: load or cluster out of range");
  return ltable_->lroute_id[static_cast<std::size_t>(j) * n + l];
}

SteadyStateProblem::ReducedModel SteadyStateProblem::build_reduced(
    const std::vector<BetaFixing>& fixings) const {
  const int n = num_clusters();
  const auto& lroutes = ltable_->lroutes;
  ReducedModel out;
  out.has_fixings = !fixings.empty();
  lp::Model& m = out.model;
  m.set_sense(lp::Sense::Maximize);

  // Fixing lookup: load-route -> fixed beta value (or -1 when free). The
  // LPRR fixing API is per platform route, which only identifies one
  // column on canonical sets (load-route id == route id there).
  require(fixings.empty() || canonical_,
          "build_reduced: beta fixings require a canonical load set");
  std::vector<int> fixed(lroutes.size(), -1);
  for (const BetaFixing& f : fixings) {
    require(f.route >= 0 && f.route < static_cast<int>(table_->routes.size()) &&
                table_->routes[f.route].needs_beta && f.value >= 0,
            "build_reduced: invalid beta fixing");
    fixed[f.route] = f.value;
  }

  // Alpha variables, one per (load, reachable destination). Alpha r is
  // variable r, so every row below gathers its alpha terms in ascending
  // load-route order and reaches the model at its exact size, already
  // in lp::Model's normal form (ascending, zero-free): it is stored
  // without a sort.
  const std::size_t num_lroutes = lroutes.size();
  out.alpha_var.resize(num_lroutes);
  for (std::size_t r = 0; r < num_lroutes; ++r) {
    const LoadSpec& load = loads_.loads[lroutes[r].load];
    const Route& route = table_->routes[lroutes[r].route];
    double ub = lp::kInf;
    if (load.weight == 0.0) {
      ub = 0.0;  // no application on this load slot: nothing to send
    } else if (fixed[r] >= 0) {
      // (7e) with beta pinned: data_ratio * alpha <= beta * pbw.
      ub = fixed[r] * route.pbw / load.data_ratio;
    }
    out.alpha_var[r] = m.add_variable(0.0, ub, 0.0);
  }

  // (7b) compute capacity of each cluster, summed over every load, and
  // (7c) gateway capacity, from one ascending sweep over the load-routes:
  // load-route r computes on its destination, and a remote one ships
  // data_ratio bytes per unit through the gateways of both ends. So
  // gateway row k holds every remote load-route leaving or entering k.
  // A cluster with no remote routes (single-cluster or fully-
  // disconnected platforms, churned-out clusters) sends no gateway
  // traffic at all: emitting its row would add a degenerate 0 <= g_k
  // constraint (and a slack column) per isolated cluster.
  // The sweep fills two flat buffers at counted row offsets; each row
  // is then copied out at its exact size as it is added, in row order.
  // Building every row's own buffer up front instead kept the same live
  // bytes but left about 0.4 MiB more heap at replay-k128's peak.
  std::vector<int> speed_at(n + 1, 0), gateway_at(n + 1, 0);
  for (const LoadRoute& lr : lroutes) {
    const Route& route = table_->routes[lr.route];
    ++speed_at[route.l + 1];
    if (route.k != route.l) {
      ++gateway_at[route.k + 1];
      ++gateway_at[route.l + 1];
    }
  }
  std::partial_sum(speed_at.begin(), speed_at.end(), speed_at.begin());
  std::partial_sum(gateway_at.begin(), gateway_at.end(), gateway_at.begin());
  std::vector<lp::Term> speed_terms(speed_at[n]), gateway_terms(gateway_at[n]);
  {
    std::vector<int> speed_next(speed_at.begin(), speed_at.end() - 1);
    std::vector<int> gateway_next(gateway_at.begin(), gateway_at.end() - 1);
    for (std::size_t r = 0; r < num_lroutes; ++r) {
      const Route& route = table_->routes[lroutes[r].route];
      const int var = out.alpha_var[r];
      speed_terms[speed_next[route.l]++] = {var, 1.0};
      if (route.k == route.l) continue;
      const double ratio = loads_.loads[lroutes[r].load].data_ratio;
      gateway_terms[gateway_next[route.k]++] = {var, ratio};
      gateway_terms[gateway_next[route.l]++] = {var, ratio};
    }
  }
  const auto row_of = [](const std::vector<lp::Term>& flat,
                         const std::vector<int>& at, int c) {
    return std::vector<lp::Term>(flat.begin() + at[c], flat.begin() + at[c + 1]);
  };
  out.speed_row.resize(n);
  for (int l = 0; l < n; ++l)
    out.speed_row[l] = m.add_constraint(row_of(speed_terms, speed_at, l),
                                        lp::Relation::LessEqual,
                                        plat_->cluster(l).speed);
  out.gateway_row.assign(n, -1);
  for (int k = 0; k < n; ++k) {
    if (gateway_at[k] == gateway_at[k + 1]) continue;
    out.gateway_row[k] = m.add_constraint(row_of(gateway_terms, gateway_at, k),
                                          lp::Relation::LessEqual,
                                          plat_->cluster(k).gateway_bw);
  }

  // (7d) with beta substituted: sum data_ratio * alpha / pbw over free
  // load-routes through the link, against the budget left by the fixed.
  out.maxcon_row.assign(plat_->num_links(), -1);
  for (platform::LinkId li = 0; li < plat_->num_links(); ++li) {
    const std::vector<int>& through = ltable_->link_lroutes[li];
    if (through.empty()) continue;
    std::size_t free_count = 0;
    for (const int r : through) free_count += fixed[r] < 0;
    std::vector<lp::Term> terms;
    terms.reserve(free_count);
    double budget = plat_->link(li).max_connections;
    for (const int r : through) {
      if (fixed[r] >= 0) {
        budget -= fixed[r];
      } else {
        terms.push_back({out.alpha_var[r],
                         loads_.loads[lroutes[r].load].data_ratio /
                             table_->routes[lroutes[r].route].pbw});
      }
    }
    require(budget >= -kEps, "build_reduced: beta fixings exceed a link budget");
    if (terms.empty()) continue;
    out.maxcon_row[li] = m.add_constraint(std::move(terms), lp::Relation::LessEqual,
                                          std::max(budget, 0.0));
  }

  // Amdahl-like per-load caps: sum_l alpha_{j,l} <= cap_j. Absent for
  // canonical sets (cap = +inf), so the legacy layout is untouched.
  const std::vector<int>& begin = ltable_->lroute_begin;
  const auto load_terms = [&](int j, double coef, std::size_t extra) {
    std::vector<lp::Term> terms;
    terms.reserve(static_cast<std::size_t>(begin[j + 1] - begin[j]) + extra);
    for (int r = begin[j]; r < begin[j + 1]; ++r)
      terms.push_back({out.alpha_var[r], coef});
    return terms;
  };
  for (int j = 0; j < num_loads(); ++j) {
    if (!std::isfinite(loads_.loads[j].cap)) continue;
    if (begin[j] == begin[j + 1]) continue;
    m.add_constraint(load_terms(j, 1.0, 0), lp::Relation::LessEqual,
                     loads_.loads[j].cap);
  }

  // Objective. A MaxMin fairness row lists its load's alphas, then t
  // (the last variable), which is its sorted order.
  if (objective_ == Objective::Sum) {
    for (std::size_t r = 0; r < num_lroutes; ++r)
      m.set_objective_coef(out.alpha_var[r], loads_.loads[lroutes[r].load].weight);
  } else {
    out.t_var = m.add_variable(0.0, lp::kInf, 1.0);
    for (int j = 0; j < num_loads(); ++j) {
      const double w = loads_.loads[j].weight;
      if (w <= 0.0) continue;
      std::vector<lp::Term> terms = load_terms(j, -w, 1);
      terms.push_back({out.t_var, 1.0});
      m.add_constraint(std::move(terms), lp::Relation::LessEqual, 0.0);
    }
  }
  return out;
}

void SteadyStateProblem::update_reduced_payoffs(ReducedModel& reduced) const {
  require(objective_ == Objective::Sum,
          "update_reduced_payoffs: MaxMin reshapes the model per payoff "
          "support; rebuild with build_reduced instead");
  require(reduced.alpha_var.size() == ltable_->lroutes.size() &&
              reduced.t_var == -1,
          "update_reduced_payoffs: model does not match this problem");
  require(!reduced.has_fixings,
          "update_reduced_payoffs: model was built with beta fixings, whose "
          "(7e) caps live in the alpha bounds this would overwrite");
  lp::Model& m = reduced.model;
  const std::vector<int>& begin = ltable_->lroute_begin;
  for (int j = 0; j < num_loads(); ++j) {
    if (begin[j] == begin[j + 1]) continue;
    const double w = loads_.loads[j].weight;
    const double held = m.objective_coef(reduced.alpha_var[begin[j]]);
    if (std::bit_cast<std::uint64_t>(held) == std::bit_cast<std::uint64_t>(w))
      continue;
    for (int r = begin[j]; r < begin[j + 1]; ++r) {
      const int var = reduced.alpha_var[r];
      m.set_bounds(var, 0.0, w == 0.0 ? 0.0 : lp::kInf);
      m.set_objective_coef(var, w);
    }
  }
}

bool SteadyStateProblem::refresh_route_bandwidths() {
  const std::vector<Route>& routes = table_->routes;
  std::size_t first = 0;
  while (first < routes.size() &&
         plat_->route_bottleneck_bw(routes[first].k, routes[first].l) ==
             routes[first].pbw)
    ++first;
  if (first == routes.size()) return false;
  auto table = std::make_shared<RouteTable>(*table_);
  for (std::size_t r = first; r < routes.size(); ++r)
    table->routes[r].pbw = plat_->route_bottleneck_bw(routes[r].k, routes[r].l);
  table_ = std::move(table);
  return true;
}

void SteadyStateProblem::update_reduced_capacities(ReducedModel& reduced,
                                                   bool pbw_changed) const {
  const int n = num_clusters();
  require(!reduced.has_fixings,
          "update_reduced_capacities: model was built with beta fixings, "
          "whose link budgets this would overwrite");
  require(reduced.alpha_var.size() == ltable_->lroutes.size() &&
              static_cast<int>(reduced.speed_row.size()) == n &&
              static_cast<int>(reduced.gateway_row.size()) == n &&
              static_cast<int>(reduced.maxcon_row.size()) == plat_->num_links(),
          "update_reduced_capacities: model does not match this problem");
  lp::Model& m = reduced.model;
  for (int l = 0; l < n; ++l) m.set_rhs(reduced.speed_row[l], plat_->cluster(l).speed);
  for (int k = 0; k < n; ++k)
    if (reduced.gateway_row[k] >= 0)
      m.set_rhs(reduced.gateway_row[k], plat_->cluster(k).gateway_bw);
  std::vector<lp::Term> terms;
  for (platform::LinkId li = 0; li < plat_->num_links(); ++li) {
    const int row = reduced.maxcon_row[li];
    if (row < 0) continue;
    // Same budget expression as build_reduced without fixings.
    const double budget = plat_->link(li).max_connections;
    m.set_rhs(row, std::max(budget, 0.0));
    if (!pbw_changed) continue;
    terms.clear();
    for (int r : ltable_->link_lroutes[li])
      terms.push_back({reduced.alpha_var[r],
                       loads_.loads[ltable_->lroutes[r].load].data_ratio /
                           table_->routes[ltable_->lroutes[r].route].pbw});
    m.set_row(row, terms);
  }
}

SteadyStateProblem::FullModel SteadyStateProblem::build_full(bool integer_betas) const {
  const int n = num_clusters();
  const auto& lroutes = ltable_->lroutes;
  FullModel out;
  out.integer_betas = integer_betas;
  lp::Model& m = out.model;
  m.set_sense(lp::Sense::Maximize);

  out.alpha_var.resize(lroutes.size());
  out.beta_var.assign(lroutes.size(), -1);
  for (std::size_t r = 0; r < lroutes.size(); ++r) {
    const LoadSpec& load = loads_.loads[lroutes[r].load];
    const Route& route = table_->routes[lroutes[r].route];
    const double ub = load.weight == 0.0 ? 0.0 : lp::kInf;
    out.alpha_var[r] = m.add_variable(0.0, ub, 0.0);
    if (route.needs_beta) {
      out.beta_var[r] = m.add_variable(0.0, lp::kInf, 0.0);
      if (integer_betas) m.set_integer(out.beta_var[r]);
    }
  }

  for (int l = 0; l < n; ++l) {  // (7b)
    std::vector<lp::Term> terms;
    for (int j = 0; j < num_loads(); ++j) {
      const int r = load_route_id(j, l);
      if (r >= 0) terms.push_back({out.alpha_var[r], 1.0});
    }
    m.add_constraint(std::move(terms), lp::Relation::LessEqual,
                     plat_->cluster(l).speed);
  }
  for (int k = 0; k < n; ++k) {  // (7c); isolated clusters skip their row
    std::vector<lp::Term> terms;
    for (int l = 0; l < n; ++l) {
      if (l == k) continue;
      for (int j : ltable_->loads_at[k])
        if (const int out_r = load_route_id(j, l); out_r >= 0)
          terms.push_back({out.alpha_var[out_r], loads_.loads[j].data_ratio});
      for (int j : ltable_->loads_at[l])
        if (const int in_r = load_route_id(j, k); in_r >= 0)
          terms.push_back({out.alpha_var[in_r], loads_.loads[j].data_ratio});
    }
    if (terms.empty()) continue;
    m.add_constraint(std::move(terms), lp::Relation::LessEqual,
                     plat_->cluster(k).gateway_bw);
  }
  for (platform::LinkId li = 0; li < plat_->num_links(); ++li) {  // (7d)
    if (ltable_->link_lroutes[li].empty()) continue;
    std::vector<lp::Term> terms;
    for (int r : ltable_->link_lroutes[li])
      terms.push_back({out.beta_var[r], 1.0});
    m.add_constraint(std::move(terms), lp::Relation::LessEqual,
                     plat_->link(li).max_connections);
  }
  for (std::size_t r = 0; r < lroutes.size(); ++r) {  // (7e)
    const Route& route = table_->routes[lroutes[r].route];
    if (!route.needs_beta) continue;
    m.add_constraint({{out.alpha_var[r], loads_.loads[lroutes[r].load].data_ratio},
                      {out.beta_var[r], -route.pbw}},
                     lp::Relation::LessEqual, 0.0);
  }
  for (int j = 0; j < num_loads(); ++j) {  // Amdahl-like caps
    if (!std::isfinite(loads_.loads[j].cap)) continue;
    std::vector<lp::Term> terms;
    for (int l = 0; l < n; ++l) {
      const int r = load_route_id(j, l);
      if (r >= 0) terms.push_back({out.alpha_var[r], 1.0});
    }
    if (terms.empty()) continue;
    m.add_constraint(std::move(terms), lp::Relation::LessEqual, loads_.loads[j].cap);
  }

  if (objective_ == Objective::Sum) {
    for (std::size_t r = 0; r < lroutes.size(); ++r)
      m.set_objective_coef(out.alpha_var[r], loads_.loads[lroutes[r].load].weight);
  } else {
    out.t_var = m.add_variable(0.0, lp::kInf, 1.0);
    for (int j = 0; j < num_loads(); ++j) {
      const double w = loads_.loads[j].weight;
      if (w <= 0.0) continue;
      std::vector<lp::Term> terms{{out.t_var, 1.0}};
      for (int l = 0; l < n; ++l) {
        const int r = load_route_id(j, l);
        if (r >= 0) terms.push_back({out.alpha_var[r], -w});
      }
      m.add_constraint(std::move(terms), lp::Relation::LessEqual, 0.0);
    }
  }
  return out;
}

Allocation SteadyStateProblem::allocation_from_reduced(
    const ReducedModel& reduced, const std::vector<double>& x,
    const std::vector<BetaFixing>& fixings) const {
  require(canonical_,
          "allocation_from_reduced: cluster-by-cluster allocations only "
          "exist for canonical load sets");
  require(x.size() == static_cast<std::size_t>(reduced.model.num_variables()),
          "allocation_from_reduced: assignment size mismatch");
  std::vector<int> fixed(table_->routes.size(), -1);
  for (const BetaFixing& f : fixings) fixed[f.route] = f.value;

  Allocation alloc(num_clusters());
  for (std::size_t r = 0; r < table_->routes.size(); ++r) {
    const Route& route = table_->routes[r];
    const double a = std::max(0.0, x[reduced.alpha_var[r]]);
    alloc.set_alpha(route.k, route.l, a);
    if (route.needs_beta) {
      alloc.set_beta(route.k, route.l,
                     fixed[r] >= 0 ? fixed[r] : a / route.pbw);
    }
  }
  return alloc;
}

Allocation SteadyStateProblem::allocation_from_full(const FullModel& full,
                                                    const std::vector<double>& x) const {
  require(canonical_,
          "allocation_from_full: cluster-by-cluster allocations only "
          "exist for canonical load sets");
  require(x.size() == static_cast<std::size_t>(full.model.num_variables()),
          "allocation_from_full: assignment size mismatch");
  Allocation alloc(num_clusters());
  for (std::size_t r = 0; r < table_->routes.size(); ++r) {
    const Route& route = table_->routes[r];
    alloc.set_alpha(route.k, route.l, std::max(0.0, x[full.alpha_var[r]]));
    if (full.beta_var[r] >= 0)
      alloc.set_beta(route.k, route.l, std::max(0.0, x[full.beta_var[r]]));
  }
  return alloc;
}

double SteadyStateProblem::objective_of(const Allocation& alloc) const {
  const int n = num_clusters();
  require(alloc.num_clusters() == n, "objective_of: cluster count mismatch");
  if (objective_ == Objective::Sum) {
    double total = 0.0;
    for (int k = 0; k < n; ++k) total += payoffs()[k] * alloc.total_alpha(k);
    return total;
  }
  double worst = std::numeric_limits<double>::infinity();
  bool any = false;
  for (int k = 0; k < n; ++k) {
    if (payoffs()[k] <= 0.0) continue;
    any = true;
    worst = std::min(worst, payoffs()[k] * alloc.total_alpha(k));
  }
  return any ? worst : 0.0;
}

ValidationReport validate_allocation(const SteadyStateProblem& problem,
                                     const Allocation& alloc, double eps,
                                     bool require_integer_betas) {
  ValidationReport report;
  auto fail = [&report](std::string msg) {
    report.ok = false;
    report.violations.push_back(std::move(msg));
  };
  // Names a violating (k, l) entry, e.g. "a_0_3"; built only on failure.
  auto entry = [](const char* prefix, int k, int l) {
    return std::string(prefix) + "_" + std::to_string(k) + "_" + std::to_string(l);
  };

  const platform::Platform& plat = problem.plat();
  const int n = plat.num_clusters();
  if (alloc.num_clusters() != n) {
    fail("allocation size does not match platform");
    return report;
  }

  for (int k = 0; k < n; ++k) {
    for (int l = 0; l < n; ++l) {
      const double a = alloc.alpha(k, l);
      const double b = alloc.beta(k, l);
      if (a < -eps) fail("(7f) alpha negative at " + entry("a", k, l));
      if (b < -eps) fail("beta negative at " + entry("b", k, l));
      const int r = problem.route_id(k, l);
      if (r < 0) {
        if (a > eps) fail("alpha on missing route " + entry("a", k, l));
        if (b > eps) fail("beta on missing route " + entry("b", k, l));
        continue;
      }
      if (problem.payoffs()[k] == 0.0 && a > eps)
        fail("alpha from payoff-0 cluster " + entry("a", k, l));
      const auto& route = problem.routes()[r];
      if (!route.needs_beta && b > eps)
        fail("beta on local/linkless route " + entry("b", k, l));
      if (route.needs_beta && a > b * route.pbw + eps)
        fail("(7e) bandwidth exceeded on route " + entry("a", k, l));
      if (require_integer_betas && std::fabs(b - std::round(b)) > eps)
        fail("(7g) beta not integral at " + entry("b", k, l));
    }
  }

  for (int l = 0; l < n; ++l)  // (7b)
    if (alloc.load_on(l) > plat.cluster(l).speed + eps)
      fail("(7b) speed exceeded on cluster " + std::to_string(l));
  for (int k = 0; k < n; ++k)  // (7c)
    if (alloc.gateway_traffic(k) > plat.cluster(k).gateway_bw + eps)
      fail("(7c) gateway exceeded on cluster " + std::to_string(k));

  for (platform::LinkId li = 0; li < plat.num_links(); ++li) {  // (7d)
    double used = 0.0;
    for (int r : problem.routes_through_link()[li]) {
      const auto& route = problem.routes()[r];
      used += alloc.beta(route.k, route.l);
    }
    if (used > plat.link(li).max_connections + eps)
      fail("(7d) max-connect exceeded on link " + std::to_string(li));
  }
  return report;
}

}  // namespace dls::core
