// SteadyStateProblem::build_reduced against its per-row reference
// (tests/core/reference_reduced.cpp): the one-sweep builder must emit
// the same model bit for bit — every row's terms, relation and rhs,
// every bound and cost, the alpha/row index maps and the structure
// fingerprint — on canonical sets, slot sets with idle slots and
// several slots per cluster, isolated clusters, Amdahl caps, LPRR beta
// fixings and both objectives, and an in-place capacity patch must
// still equal the reference build of a fresh problem.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/problem.hpp"
#include "core/reference_reduced.hpp"
#include "core/test_platforms.hpp"
#include "platform/generator.hpp"
#include "support/rng.hpp"

namespace dls::core {
namespace {

using testing::expect_same_reduced;
using testing::reference_build_reduced;

platform::Platform generated(int k, std::uint64_t seed) {
  platform::GeneratorParams params;
  params.num_clusters = k;
  params.ensure_connected = true;
  Rng rng(seed);
  return generate_platform(params, rng);
}

/// Two clusters joined by a link plus a third on a router of its own:
/// the isolated cluster has no remote route, so no gateway row.
platform::Platform with_isolated_cluster() {
  platform::Platform p;
  const auto r0 = p.add_router("r0");
  const auto r1 = p.add_router("r1");
  const auto r2 = p.add_router("r2");
  p.add_cluster(100, 50, r0, "C0");
  p.add_cluster(80, 40, r1, "C1");
  p.add_cluster(60, 30, r2, "lonely");
  p.add_backbone(r0, r1, 10, 4, "wan");
  p.compute_shortest_path_routes();
  return p;
}

/// One to four slots per cluster, every third slot idle (weight 0),
/// non-unit data ratios, and a finite Amdahl cap on every fifth slot
/// when `caps` is set.
LoadSet slot_set(int k, bool caps) {
  LoadSet set;
  for (int c = 0; c < k; ++c)
    for (int s = 0; s <= c % 4; ++s) {
      LoadSpec spec;
      spec.source = c;
      const int slot = static_cast<int>(set.loads.size());
      spec.weight = slot % 3 == 0 ? 0.0 : 1.0 + 0.5 * (slot % 4);
      spec.data_ratio = 0.25 + 0.375 * (slot % 5);
      if (caps && slot % 5 == 1) spec.cap = 3.0 + slot;
      set.loads.push_back(spec);
    }
  return set;
}

void expect_matches_reference(const SteadyStateProblem& problem,
                              const std::vector<SteadyStateProblem::BetaFixing>&
                                  fixings = {}) {
  expect_same_reduced(problem.build_reduced(fixings),
                      reference_build_reduced(problem, fixings));
}

TEST(AssemblyOracle, CanonicalSetsMatchReference) {
  for (const Objective objective : {Objective::Sum, Objective::MaxMin}) {
    const platform::Platform plat = generated(12, 3);
    std::vector<double> payoffs(12);
    for (int c = 0; c < 12; ++c) payoffs[c] = c % 4 == 0 ? 0.0 : 1.0 + c;
    const SteadyStateProblem problem(plat, payoffs, objective);
    ASSERT_TRUE(problem.is_canonical());
    expect_matches_reference(problem);
  }
}

TEST(AssemblyOracle, SlotSetsWithIdleSlotsMatchReference) {
  for (const Objective objective : {Objective::Sum, Objective::MaxMin})
    for (const int k : {6, 16, 24}) {
      const platform::Platform plat = generated(k, 40 + k);
      const SteadyStateProblem problem(plat, slot_set(k, false), objective);
      ASSERT_FALSE(problem.is_canonical());
      expect_matches_reference(problem);
    }
}

TEST(AssemblyOracle, AmdahlCapsMatchReference) {
  for (const Objective objective : {Objective::Sum, Objective::MaxMin}) {
    const platform::Platform plat = generated(10, 7);
    expect_matches_reference(SteadyStateProblem(plat, slot_set(10, true), objective));
  }
}

TEST(AssemblyOracle, IsolatedClustersEmitNoGatewayRow) {
  const platform::Platform plat = with_isolated_cluster();
  for (const Objective objective : {Objective::Sum, Objective::MaxMin}) {
    const SteadyStateProblem problem(plat, slot_set(3, true), objective);
    expect_matches_reference(problem);
    EXPECT_EQ(problem.build_reduced().gateway_row[2], -1);
  }
  const platform::Platform single = testing::single_cluster();
  expect_matches_reference(SteadyStateProblem(single, {1.0}, Objective::Sum));
}

TEST(AssemblyOracle, BetaFixingsMatchReference) {
  for (const Objective objective : {Objective::Sum, Objective::MaxMin}) {
    const platform::Platform plat = generated(9, 11);
    const SteadyStateProblem problem(plat, std::vector<double>(9, 1.0), objective);
    // Pin every third route that needs a beta: to 0, or to 1 where each
    // link on it admits a connection.
    std::vector<SteadyStateProblem::BetaFixing> fixings;
    for (int r = 0; r < static_cast<int>(problem.routes().size()); ++r) {
      const auto& route = problem.routes()[r];
      if (!route.needs_beta || r % 3 != 0) continue;
      bool room = true;
      for (const platform::LinkId li : plat.route(route.k, route.l))
        room = room && plat.link(li).max_connections >= 4;
      fixings.push_back({r, room && r % 2 == 0 ? 1 : 0});
    }
    ASSERT_FALSE(fixings.empty());
    expect_matches_reference(problem, fixings);
  }
}

TEST(AssemblyOracle, CapacityPatchMatchesReferenceOfFreshProblem) {
  platform::Platform plat = generated(12, 19);
  SteadyStateProblem problem(plat, slot_set(12, false), Objective::Sum);
  SteadyStateProblem::ReducedModel reduced = problem.build_reduced();
  platform::LinkId li = 0;
  while (plat.num_routes_through(li) == 0) ++li;

  // A link bandwidth cut moves pbw: the (7d) rows go through set_row.
  plat.set_link_bandwidth(li, plat.link(li).bw * 0.3);
  bool pbw_changed = problem.refresh_route_bandwidths();
  EXPECT_TRUE(pbw_changed);
  problem.update_reduced_capacities(reduced, pbw_changed);
  expect_same_reduced(reduced, reference_build_reduced(SteadyStateProblem(
                                   plat, problem.loads(), Objective::Sum)));

  // A gateway and max-connect change moves right-hand sides only.
  plat.set_cluster_gateway_bw(2, plat.cluster(2).gateway_bw * 1.7);
  plat.set_link_max_connections(li, plat.link(li).max_connections + 3);
  pbw_changed = problem.refresh_route_bandwidths();
  EXPECT_FALSE(pbw_changed);
  problem.update_reduced_capacities(reduced, pbw_changed);
  expect_same_reduced(reduced, reference_build_reduced(SteadyStateProblem(
                                   plat, problem.loads(), Objective::Sum)));
}

}  // namespace
}  // namespace dls::core
