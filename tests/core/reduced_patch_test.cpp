// In-place re-pricing of the reduced LP (SteadyStateProblem::
// refresh_route_bandwidths + update_reduced_capacities), in-place
// re-weighting (set_load_weights + update_reduced_payoffs) and slot
// growth through with_loads: after every change the patched or re-derived
// model must equal build_reduced() of a freshly constructed problem on
// the same platform, bit for bit, so the simplex cannot tell them apart.
#include "core/problem.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/reference_reduced.hpp"
#include "platform/generator.hpp"
#include "support/rng.hpp"

namespace dls::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

using testing::expect_same_reduced;

platform::Platform test_platform(int k, std::uint64_t seed) {
  platform::GeneratorParams params;
  params.num_clusters = k;
  params.ensure_connected = true;
  Rng rng(seed);
  return generate_platform(params, rng);
}

/// Two loads on cluster 0, one on each other cluster, non-unit data
/// ratios so the (7d) coefficients are data_ratio / pbw, not 1 / pbw.
LoadSet mixed_loads(int k) {
  LoadSet set;
  for (int c = 0; c < k; ++c) {
    LoadSpec spec;
    spec.source = c;
    spec.weight = 1.0 + 0.25 * c;
    spec.data_ratio = 0.5 + 0.125 * c;
    set.loads.push_back(spec);
  }
  LoadSpec extra;
  extra.source = 0;
  extra.weight = 0.0;  // an idle slot: its columns are bounded to zero
  extra.data_ratio = 3.0;
  set.loads.push_back(extra);
  return set;
}

/// The first link some route traverses (the ones with a (7d) row).
platform::LinkId routed_link(const platform::Platform& plat, int nth) {
  for (platform::LinkId li = 0; li < plat.num_links(); ++li)
    if (plat.num_routes_through(li) > 0 && nth-- == 0) return li;
  ADD_FAILURE() << "not enough routed links";
  return 0;
}

/// Applies `change` to the platform, patches `problem`/`reduced` in place
/// and checks the result against a fresh build.
template <class Change>
void patch_and_compare(platform::Platform& plat, SteadyStateProblem& problem,
                       SteadyStateProblem::ReducedModel& reduced, bool expect_pbw,
                       Change change) {
  change(plat);
  const bool pbw_changed = problem.refresh_route_bandwidths();
  EXPECT_EQ(pbw_changed, expect_pbw);
  problem.update_reduced_capacities(reduced, pbw_changed);
  const SteadyStateProblem fresh(plat, problem.loads(), Objective::Sum);
  ASSERT_EQ(problem.routes().size(), fresh.routes().size());
  for (std::size_t r = 0; r < fresh.routes().size(); ++r)
    EXPECT_EQ(bits(problem.routes()[r].pbw), bits(fresh.routes()[r].pbw)) << "route " << r;
  expect_same_reduced(reduced, fresh.build_reduced());
}

TEST(ReducedPatch, LinkBandwidthDriftRepricesMaxConnectRows) {
  platform::Platform plat = test_platform(8, 21);
  SteadyStateProblem problem(plat, mixed_loads(8), Objective::Sum);
  SteadyStateProblem::ReducedModel reduced = problem.build_reduced();
  const std::uint64_t before = reduced.model.structure_fingerprint();
  const platform::LinkId li = routed_link(plat, 0);
  patch_and_compare(plat, problem, reduced, true, [li](platform::Platform& p) {
    p.set_link_bandwidth(li, p.link(li).bw * 0.37);
  });
  // Scaling a route's bottleneck moves its (7d) coefficients.
  EXPECT_NE(reduced.model.structure_fingerprint(), before);
}

TEST(ReducedPatch, GatewayAndSpeedDriftMoveOnlyRightHandSides) {
  platform::Platform plat = test_platform(8, 22);
  SteadyStateProblem problem(plat, mixed_loads(8), Objective::Sum);
  SteadyStateProblem::ReducedModel reduced = problem.build_reduced();
  const std::uint64_t before = reduced.model.structure_fingerprint();
  patch_and_compare(plat, problem, reduced, false, [](platform::Platform& p) {
    p.set_cluster_gateway_bw(3, p.cluster(3).gateway_bw * 1.9);
    p.set_cluster_speed(5, p.cluster(5).speed * 0.4);
  });
  EXPECT_EQ(reduced.model.structure_fingerprint(), before);
}

TEST(ReducedPatch, MaxConnectChangeMovesOnlyItsBudget) {
  platform::Platform plat = test_platform(8, 23);
  SteadyStateProblem problem(plat, mixed_loads(8), Objective::Sum);
  SteadyStateProblem::ReducedModel reduced = problem.build_reduced();
  const platform::LinkId li = routed_link(plat, 1);
  patch_and_compare(plat, problem, reduced, false, [li](platform::Platform& p) {
    p.set_link_max_connections(li, p.link(li).max_connections + 7);
  });
  patch_and_compare(plat, problem, reduced, false, [li](platform::Platform& p) {
    p.set_link_max_connections(li, 0);
  });
}

TEST(ReducedPatch, SuccessiveEventsAccumulateExactly) {
  platform::Platform plat = test_platform(10, 24);
  SteadyStateProblem problem(plat, mixed_loads(10), Objective::Sum);
  SteadyStateProblem::ReducedModel reduced = problem.build_reduced();
  Rng rng(5);
  for (int step = 0; step < 12; ++step) {
    const platform::LinkId li = routed_link(plat, step % 3);
    const int cluster = step % plat.num_clusters();
    const double scale = rng.uniform(0.3, 2.5);
    switch (step % 3) {
      case 0:
        patch_and_compare(plat, problem, reduced, true, [&](platform::Platform& p) {
          p.set_link_bandwidth(li, p.link(li).bw * scale);
        });
        break;
      case 1:
        patch_and_compare(plat, problem, reduced, false, [&](platform::Platform& p) {
          p.set_cluster_gateway_bw(cluster, p.cluster(cluster).gateway_bw * scale);
        });
        break;
      default:
        patch_and_compare(plat, problem, reduced, false, [&](platform::Platform& p) {
          p.set_link_max_connections(li, 1 + step);
        });
        break;
    }
  }
}

TEST(ReducedPatch, PayoffPatchOfChangedLoadsMatchesRebuild) {
  // A slot universe: three slots per cluster, most of them idle. Every
  // step seats, releases or re-weights slots (or rescales a capacity),
  // patches the cached model, and compares it with a fresh build.
  platform::Platform plat = test_platform(6, 27);
  LoadSet slots;
  for (int c = 0; c < 6; ++c)
    for (int s = 0; s < 3; ++s) {
      LoadSpec spec;
      spec.source = c;
      spec.weight = 0.0;
      spec.data_ratio = 1.0 + 0.25 * s;
      slots.loads.push_back(spec);
    }
  slots.loads[0].weight = 1.0;
  SteadyStateProblem problem(plat, slots, Objective::Sum);
  SteadyStateProblem::ReducedModel reduced = problem.build_reduced();
  std::vector<double> weights = problem.loads().weights();
  const int num = problem.num_loads();
  // The first slot at or after `from` (cyclically) whose weight is
  // positive (or zero, per `positive`).
  const auto find = [&](int from, bool positive) {
    for (int t = 0; t < num; ++t) {
      const int j = (from + t) % num;
      if ((weights[j] > 0.0) == positive) return j;
    }
    return -1;
  };
  Rng rng(31);
  for (int step = 0; step < 40; ++step) {
    const int from = static_cast<int>(rng.index(static_cast<std::size_t>(num)));
    switch (step % 5) {
      case 0:  // arrival: 0 -> positive
        if (const int j = find(from, false); j >= 0) weights[j] = rng.uniform(0.5, 2.0);
        break;
      case 1: {  // departure: positive -> 0, keeping one load seated
        const int j = find(from, true);
        if (find(j + 1, true) != j) weights[j] = 0.0;
        break;
      }
      case 2:  // re-weight: positive -> positive
        weights[find(from, true)] = rng.uniform(0.5, 2.0);
        break;
      case 3: {  // capacity event under the cached model
        const platform::LinkId li = routed_link(plat, step % 3);
        plat.set_link_bandwidth(li, plat.link(li).bw * rng.uniform(0.5, 1.5));
        plat.set_cluster_gateway_bw(step % 6, plat.cluster(step % 6).gateway_bw * 0.9);
        problem.update_reduced_capacities(reduced, problem.refresh_route_bandwidths());
        break;
      }
      default: {  // paired departure + arrival, and a signed idle zero
        const int out = find(from, true);
        if (find(out + 1, true) != out) weights[out] = 0.0;
        if (const int in = find(from + 1, false); in >= 0) weights[in] = 1.25;
        if (const int idle = find(from + 2, false); idle >= 0) weights[idle] = -0.0;
        break;
      }
    }
    problem.set_load_weights(weights);
    problem.update_reduced_payoffs(reduced);
    const SteadyStateProblem fresh(plat, problem.loads(), Objective::Sum);
    expect_same_reduced(reduced, fresh.build_reduced());
    if (HasFailure()) FAIL() << "diverged at step " << step;
  }
}

TEST(ReducedPatch, SetLoadWeightsValidatesBeforeWriting) {
  const platform::Platform plat = test_platform(4, 28);
  SteadyStateProblem problem(plat, mixed_loads(4), Objective::Sum);
  const std::vector<double> before = problem.loads().weights();
  std::vector<double> bad = before;
  bad.back() = -1.0;
  EXPECT_THROW(problem.set_load_weights(bad), Error);
  EXPECT_THROW(problem.set_load_weights(std::vector<double>(before.size(), 0.0)),
               Error);
  EXPECT_THROW(problem.set_load_weights({1.0}), Error);
  EXPECT_EQ(problem.loads().weights(), before);
}

TEST(ReducedPatch, RefreshCopiesTheSharedRouteTable) {
  platform::Platform plat = test_platform(6, 25);
  SteadyStateProblem problem(plat, mixed_loads(6), Objective::Sum);
  SteadyStateProblem sibling = problem;
  sibling.set_load_weights(std::vector<double>(problem.num_loads(), 1.0));
  const std::vector<SteadyStateProblem::Route> old_routes = sibling.routes();
  const platform::LinkId li = routed_link(plat, 0);
  plat.set_link_bandwidth(li, plat.link(li).bw * 0.5);
  ASSERT_TRUE(problem.refresh_route_bandwidths());
  EXPECT_FALSE(problem.refresh_route_bandwidths());  // already current
  // The sibling shared the table before the refresh and still reads the
  // old values: the refresh replaced the table instead of writing it.
  bool any_moved = false;
  for (std::size_t r = 0; r < old_routes.size(); ++r) {
    EXPECT_EQ(bits(sibling.routes()[r].pbw), bits(old_routes[r].pbw));
    any_moved |= problem.routes()[r].pbw != old_routes[r].pbw;
  }
  EXPECT_TRUE(any_moved);
}

TEST(ReducedPatch, RejectsModelsItCannotPatch) {
  const platform::Platform plat = test_platform(5, 26);
  const SteadyStateProblem problem(plat, std::vector<double>(5, 1.0), Objective::Sum);
  const SteadyStateProblem other(plat, mixed_loads(5), Objective::Sum);
  SteadyStateProblem::ReducedModel mismatched = other.build_reduced();
  EXPECT_THROW(problem.update_reduced_capacities(mismatched, true), Error);
  int fixed_route = -1;
  for (std::size_t r = 0; r < problem.routes().size(); ++r)
    if (problem.routes()[r].needs_beta) fixed_route = static_cast<int>(r);
  ASSERT_GE(fixed_route, 0);
  SteadyStateProblem::ReducedModel fixed = problem.build_reduced({{fixed_route, 0}});
  EXPECT_THROW(problem.update_reduced_capacities(fixed, false), Error);
}

TEST(ReducedPatch, SlotGrowthThroughWithLoadsMatchesFreshProblem) {
  platform::Platform plat = test_platform(8, 27);
  // One slot per cluster (the canonical shape), then cluster 2 and 5
  // grow to two and four slots, the way the multi-load rescheduler
  // grows its slot universe.
  auto slots = [](const std::vector<int>& per_cluster) {
    LoadSet set;
    for (std::size_t c = 0; c < per_cluster.size(); ++c)
      for (int s = 0; s < per_cluster[c]; ++s) {
        LoadSpec spec;
        spec.source = static_cast<int>(c);
        spec.weight = (c + s) % 3 == 0 ? 0.0 : 1.0 + 0.1 * s;
        set.loads.push_back(spec);
      }
    return set;
  };
  std::vector<int> per_cluster(8, 1);
  SteadyStateProblem problem(plat, slots(per_cluster), Objective::Sum);
  for (int grow : {2, 5, 2}) {
    per_cluster[grow] *= 2;
    // A capacity event between growths: the re-derived problem must
    // carry the refreshed route table.
    const platform::LinkId li = routed_link(plat, grow % 2);
    plat.set_link_bandwidth(li, plat.link(li).bw * 1.3);
    ASSERT_TRUE(problem.refresh_route_bandwidths());
    problem = problem.with_loads(slots(per_cluster));
    const SteadyStateProblem fresh(plat, slots(per_cluster), Objective::Sum);
    EXPECT_EQ(problem.is_canonical(), fresh.is_canonical());
    ASSERT_EQ(problem.load_routes().size(), fresh.load_routes().size());
    expect_same_reduced(problem.build_reduced(), fresh.build_reduced());
  }
}

}  // namespace
}  // namespace dls::core
