#include "core/reference_reduced.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "lp/types.hpp"

namespace dls::core::testing {

SteadyStateProblem::ReducedModel reference_build_reduced(
    const SteadyStateProblem& problem,
    const std::vector<SteadyStateProblem::BetaFixing>& fixings) {
  const platform::Platform& plat = problem.plat();
  const int n = problem.num_clusters();
  const int num_loads = problem.num_loads();
  const std::vector<LoadSpec>& loads = problem.loads().loads;
  const auto& routes = problem.routes();
  const auto& lroutes = problem.load_routes();

  // The load table's per-cluster and per-link lists, from the public API.
  std::vector<std::vector<int>> loads_at(n);
  for (int j = 0; j < num_loads; ++j) loads_at[loads[j].source].push_back(j);
  std::vector<std::vector<int>> link_lroutes(plat.num_links());
  for (std::size_t r = 0; r < lroutes.size(); ++r) {
    const auto& route = routes[lroutes[r].route];
    if (route.k == route.l) continue;
    for (const platform::LinkId li : plat.route(route.k, route.l))
      link_lroutes[li].push_back(static_cast<int>(r));
  }

  SteadyStateProblem::ReducedModel out;
  out.has_fixings = !fixings.empty();
  lp::Model& m = out.model;
  m.set_sense(lp::Sense::Maximize);

  std::vector<int> fixed(lroutes.size(), -1);
  for (const auto& f : fixings) fixed[f.route] = f.value;

  out.alpha_var.resize(lroutes.size());
  for (std::size_t r = 0; r < lroutes.size(); ++r) {
    const LoadSpec& load = loads[lroutes[r].load];
    const auto& route = routes[lroutes[r].route];
    double ub = lp::kInf;
    if (load.weight == 0.0) {
      ub = 0.0;
    } else if (fixed[r] >= 0) {
      ub = fixed[r] * route.pbw / load.data_ratio;
    }
    out.alpha_var[r] = m.add_variable(0.0, ub, 0.0);
  }

  // (7b)
  out.speed_row.resize(n);
  for (int l = 0; l < n; ++l) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < num_loads; ++j) {
      const int r = problem.load_route_id(j, l);
      if (r >= 0) terms.push_back({out.alpha_var[r], 1.0});
    }
    out.speed_row[l] = m.add_constraint(std::move(terms), lp::Relation::LessEqual,
                                        plat.cluster(l).speed);
  }

  // (7c); isolated clusters emit no row.
  out.gateway_row.assign(n, -1);
  for (int k = 0; k < n; ++k) {
    std::vector<lp::Term> terms;
    for (int l = 0; l < n; ++l) {
      if (l == k) continue;
      for (int j : loads_at[k])
        if (const int out_r = problem.load_route_id(j, l); out_r >= 0)
          terms.push_back({out.alpha_var[out_r], loads[j].data_ratio});
      for (int j : loads_at[l])
        if (const int in_r = problem.load_route_id(j, k); in_r >= 0)
          terms.push_back({out.alpha_var[in_r], loads[j].data_ratio});
    }
    if (terms.empty()) continue;
    out.gateway_row[k] = m.add_constraint(std::move(terms), lp::Relation::LessEqual,
                                          plat.cluster(k).gateway_bw);
  }

  // (7d) with beta substituted.
  out.maxcon_row.assign(plat.num_links(), -1);
  for (platform::LinkId li = 0; li < plat.num_links(); ++li) {
    if (link_lroutes[li].empty()) continue;
    std::vector<lp::Term> terms;
    double budget = plat.link(li).max_connections;
    for (int r : link_lroutes[li]) {
      if (fixed[r] >= 0) {
        budget -= fixed[r];
      } else {
        terms.push_back({out.alpha_var[r], loads[lroutes[r].load].data_ratio /
                                               routes[lroutes[r].route].pbw});
      }
    }
    if (terms.empty()) continue;
    out.maxcon_row[li] = m.add_constraint(std::move(terms), lp::Relation::LessEqual,
                                          std::max(budget, 0.0));
  }

  // Amdahl-like caps.
  for (int j = 0; j < num_loads; ++j) {
    if (!std::isfinite(loads[j].cap)) continue;
    std::vector<lp::Term> terms;
    for (int l = 0; l < n; ++l) {
      const int r = problem.load_route_id(j, l);
      if (r >= 0) terms.push_back({out.alpha_var[r], 1.0});
    }
    if (terms.empty()) continue;
    m.add_constraint(std::move(terms), lp::Relation::LessEqual, loads[j].cap);
  }

  if (problem.objective() == Objective::Sum) {
    for (std::size_t r = 0; r < lroutes.size(); ++r)
      m.set_objective_coef(out.alpha_var[r], loads[lroutes[r].load].weight);
  } else {
    out.t_var = m.add_variable(0.0, lp::kInf, 1.0);
    for (int j = 0; j < num_loads; ++j) {
      const double w = loads[j].weight;
      if (w <= 0.0) continue;
      std::vector<lp::Term> terms{{out.t_var, 1.0}};
      for (int l = 0; l < n; ++l) {
        const int r = problem.load_route_id(j, l);
        if (r >= 0) terms.push_back({out.alpha_var[r], -w});
      }
      m.add_constraint(std::move(terms), lp::Relation::LessEqual, 0.0);
    }
  }
  return out;
}

namespace {
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
}  // namespace

void expect_same_model(const lp::Model& got, const lp::Model& want) {
  ASSERT_EQ(got.num_variables(), want.num_variables());
  ASSERT_EQ(got.num_constraints(), want.num_constraints());
  EXPECT_EQ(got.structure_fingerprint(), want.structure_fingerprint());
  EXPECT_EQ(got.sense(), want.sense());
  EXPECT_EQ(bits(got.objective_constant()), bits(want.objective_constant()));
  for (int j = 0; j < want.num_variables(); ++j) {
    EXPECT_EQ(bits(got.lower_bound(j)), bits(want.lower_bound(j))) << "var " << j;
    EXPECT_EQ(bits(got.upper_bound(j)), bits(want.upper_bound(j))) << "var " << j;
    EXPECT_EQ(bits(got.objective_coef(j)), bits(want.objective_coef(j))) << "var " << j;
  }
  for (int c = 0; c < want.num_constraints(); ++c) {
    EXPECT_EQ(got.relation(c), want.relation(c)) << "row " << c;
    EXPECT_EQ(bits(got.rhs(c)), bits(want.rhs(c))) << "row " << c;
    const auto a = got.row(c);
    const auto b = want.row(c);
    ASSERT_EQ(a.size(), b.size()) << "row " << c;
    for (std::size_t t = 0; t < b.size(); ++t) {
      EXPECT_EQ(a[t].var, b[t].var) << "row " << c << " term " << t;
      EXPECT_EQ(bits(a[t].coef), bits(b[t].coef)) << "row " << c << " term " << t;
    }
  }
}

void expect_same_reduced(const SteadyStateProblem::ReducedModel& got,
                         const SteadyStateProblem::ReducedModel& want) {
  EXPECT_EQ(got.has_fixings, want.has_fixings);
  EXPECT_EQ(got.alpha_var, want.alpha_var);
  EXPECT_EQ(got.t_var, want.t_var);
  EXPECT_EQ(got.speed_row, want.speed_row);
  EXPECT_EQ(got.gateway_row, want.gateway_row);
  EXPECT_EQ(got.maxcon_row, want.maxcon_row);
  expect_same_model(got.model, want.model);
}

}  // namespace dls::core::testing
