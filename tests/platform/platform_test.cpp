#include "platform/platform.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "support/rng.hpp"

namespace dls::platform {
namespace {

/// Two clusters joined by a single backbone link.
Platform two_cluster_line() {
  Platform p;
  const RouterId r0 = p.add_router("r0");
  const RouterId r1 = p.add_router("r1");
  p.add_cluster(100, 50, r0, "C0");
  p.add_cluster(100, 60, r1, "C1");
  p.add_backbone(r0, r1, 10, 4, "bb");
  return p;
}

TEST(Platform, BuildsAndValidates) {
  Platform p = two_cluster_line();
  EXPECT_EQ(p.num_clusters(), 2);
  EXPECT_EQ(p.num_routers(), 2);
  EXPECT_EQ(p.num_links(), 1);
  EXPECT_EQ(p.cluster(0).speed, 100);
  EXPECT_EQ(p.cluster(1).gateway_bw, 60);
  EXPECT_EQ(p.link(0).max_connections, 4);
  EXPECT_NO_THROW(p.validate());
}

TEST(Platform, RejectsInvalidInputs) {
  Platform p;
  EXPECT_THROW(p.add_cluster(100, 50, 0), Error);  // no routers yet
  const RouterId r = p.add_router();
  EXPECT_THROW(p.add_cluster(-1, 50, r), Error);
  EXPECT_THROW(p.add_cluster(100, 0, r), Error);
  EXPECT_THROW(p.add_backbone(r, r, 10, 1), Error);   // self-loop
  const RouterId r2 = p.add_router();
  EXPECT_THROW(p.add_backbone(r, r2, 0, 1), Error);   // zero bw
  EXPECT_THROW(p.add_backbone(r, r2, 10, -1), Error); // negative maxcon
}

TEST(Platform, LocalRouteAlwaysExists) {
  Platform p = two_cluster_line();
  EXPECT_TRUE(p.has_route(0, 0));
  EXPECT_TRUE(p.route(0, 0).empty());
}

TEST(Platform, SetRouteValidatesPath) {
  Platform p = two_cluster_line();
  EXPECT_FALSE(p.has_route(0, 1));
  p.set_route(0, 1, {0});
  EXPECT_TRUE(p.has_route(0, 1));
  ASSERT_EQ(p.route(0, 1).size(), 1u);
  EXPECT_FALSE(p.has_route(1, 0));  // directed table

  EXPECT_THROW(p.set_route(0, 0, {}), Error);   // local
  EXPECT_THROW(p.set_route(0, 1, {5}), Error);  // dangling link
}

TEST(Platform, SetRouteRejectsBrokenPath) {
  Platform p;
  const RouterId r0 = p.add_router();
  const RouterId r1 = p.add_router();
  const RouterId r2 = p.add_router();
  p.add_cluster(1, 1, r0);
  p.add_cluster(1, 1, r2);
  const LinkId l01 = p.add_backbone(r0, r1, 1, 1);
  const LinkId l12 = p.add_backbone(r1, r2, 1, 1);
  // Correct path works, wrong order does not, incomplete does not.
  EXPECT_THROW(p.set_route(0, 1, {l12, l01}), Error);
  EXPECT_THROW(p.set_route(0, 1, {l01, l12, l12}), Error);
  p.set_route(0, 1, {l01, l12});
  EXPECT_EQ(p.route(0, 1).size(), 2u);
}

TEST(Platform, ClearRoute) {
  Platform p = two_cluster_line();
  p.set_route(0, 1, {0});
  p.clear_route(0, 1);
  EXPECT_FALSE(p.has_route(0, 1));
}

TEST(Platform, BottleneckBandwidth) {
  Platform p;
  const RouterId r0 = p.add_router();
  const RouterId r1 = p.add_router();
  const RouterId r2 = p.add_router();
  p.add_cluster(1, 1, r0);
  p.add_cluster(1, 1, r2);
  const LinkId fat = p.add_backbone(r0, r1, 100, 5);
  const LinkId thin = p.add_backbone(r1, r2, 7, 5);
  p.set_route(0, 1, {fat, thin});
  EXPECT_DOUBLE_EQ(p.route_bottleneck_bw(0, 1), 7.0);
  // Local: empty route -> infinite backbone bandwidth.
  EXPECT_TRUE(std::isinf(p.route_bottleneck_bw(0, 0)));
}

TEST(Platform, SameRouterClustersHaveEmptyRoute) {
  Platform p;
  const RouterId r = p.add_router();
  p.add_cluster(1, 1, r);
  p.add_cluster(1, 1, r);
  p.compute_shortest_path_routes();
  EXPECT_TRUE(p.has_route(0, 1));
  EXPECT_TRUE(p.route(0, 1).empty());
  EXPECT_TRUE(std::isinf(p.route_bottleneck_bw(0, 1)));
}

TEST(Platform, ShortestPathRoutesLine) {
  // r0 - r1 - r2 - r3 line; clusters at both ends.
  Platform p;
  std::vector<RouterId> r;
  for (int i = 0; i < 4; ++i) r.push_back(p.add_router());
  p.add_cluster(1, 1, r[0]);
  p.add_cluster(1, 1, r[3]);
  std::vector<LinkId> l;
  for (int i = 0; i < 3; ++i) l.push_back(p.add_backbone(r[i], r[i + 1], 10, 2));
  p.compute_shortest_path_routes();
  ASSERT_TRUE(p.has_route(0, 1));
  const auto route = p.route(0, 1);
  ASSERT_EQ(route.size(), 3u);
  EXPECT_EQ(route[0], l[0]);
  EXPECT_EQ(route[1], l[1]);
  EXPECT_EQ(route[2], l[2]);
}

TEST(Platform, ShortestPathPrefersFewestHops) {
  // Triangle with a 2-hop detour: direct link must win.
  Platform p;
  const RouterId r0 = p.add_router();
  const RouterId r1 = p.add_router();
  const RouterId r2 = p.add_router();
  p.add_cluster(1, 1, r0);
  p.add_cluster(1, 1, r2);
  p.add_backbone(r0, r1, 100, 9);
  p.add_backbone(r1, r2, 100, 9);
  const LinkId direct = p.add_backbone(r0, r2, 1, 1);
  p.compute_shortest_path_routes();
  ASSERT_EQ(p.route(0, 1).size(), 1u);
  EXPECT_EQ(p.route(0, 1)[0], direct);
}

TEST(Platform, UnreachablePairsHaveNoRoute) {
  Platform p;
  const RouterId r0 = p.add_router();
  const RouterId r1 = p.add_router();
  p.add_cluster(1, 1, r0);
  p.add_cluster(1, 1, r1);
  p.compute_shortest_path_routes();  // no links at all
  EXPECT_FALSE(p.has_route(0, 1));
  EXPECT_FALSE(p.has_route(1, 0));
  EXPECT_THROW(static_cast<void>(p.route(0, 1)), Error);
}

TEST(Platform, RoutesSurviveClusterAddition) {
  Platform p = two_cluster_line();
  p.set_route(0, 1, {0});
  const RouterId r2 = p.add_router();
  p.add_backbone(1, r2, 5, 1);
  p.add_cluster(100, 10, r2, "C2");
  EXPECT_TRUE(p.has_route(0, 1));  // old route preserved across migration
  EXPECT_EQ(p.route(0, 1).size(), 1u);
  EXPECT_FALSE(p.has_route(0, 2));
  EXPECT_NO_THROW(p.validate());
}

TEST(Platform, SubdivideLinkPreservesBottleneck) {
  Platform p = two_cluster_line();
  const RouterId mid = p.add_router("mid");
  const LinkId second = p.subdivide_link(0, mid);
  EXPECT_EQ(p.num_links(), 2);
  EXPECT_EQ(p.link(0).b, mid);
  EXPECT_EQ(p.link(second).a, mid);
  EXPECT_EQ(p.link(second).bw, p.link(0).bw);
  p.compute_shortest_path_routes();
  ASSERT_TRUE(p.has_route(0, 1));
  EXPECT_EQ(p.route(0, 1).size(), 2u);
  EXPECT_DOUBLE_EQ(p.route_bottleneck_bw(0, 1), 10.0);
}

TEST(Platform, ValidateCatchesCorruptRoute) {
  Platform p = two_cluster_line();
  p.set_route(0, 1, {0});
  EXPECT_NO_THROW(p.validate());
}

TEST(Platform, RouteIsDirectional) {
  Platform p = two_cluster_line();
  p.compute_shortest_path_routes();
  EXPECT_TRUE(p.has_route(0, 1));
  EXPECT_TRUE(p.has_route(1, 0));
  // Same single link both ways for this topology.
  EXPECT_EQ(p.route(0, 1)[0], p.route(1, 0)[0]);
}

/// Route metric queries are served from a per-pair cache; every mutator
/// must keep it consistent with the installed routes.
TEST(Platform, RouteMetricCacheFollowsRouteEdits) {
  Platform p;
  const RouterId r0 = p.add_router();
  const RouterId r1 = p.add_router();
  const RouterId r2 = p.add_router();
  p.add_cluster(100, 50, r0, "C0");
  p.add_cluster(100, 60, r1, "C1");
  const LinkId direct = p.add_backbone(r0, r1, 10, 4, "direct", 1.0);
  const LinkId up = p.add_backbone(r0, r2, 3, 4, "up", 2.0);
  const LinkId down = p.add_backbone(r2, r1, 8, 4, "down", 0.5);

  p.set_route(0, 1, {direct});
  EXPECT_DOUBLE_EQ(p.route_bottleneck_bw(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(p.route_latency(0, 1), 1.0);

  // Re-routing the pair through the detour updates both cached metrics.
  p.set_route(0, 1, {up, down});
  EXPECT_DOUBLE_EQ(p.route_bottleneck_bw(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(p.route_latency(0, 1), 2.5);

  p.clear_route(0, 1);
  EXPECT_THROW((void)p.route_bottleneck_bw(0, 1), Error);

  // BFS reinstall repopulates the cache (shortest route is the direct link).
  p.compute_shortest_path_routes();
  EXPECT_DOUBLE_EQ(p.route_bottleneck_bw(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(p.route_latency(0, 1), 1.0);

  // Local pairs stay unconstrained by the backbone.
  EXPECT_TRUE(std::isinf(p.route_bottleneck_bw(0, 0)));
  EXPECT_DOUBLE_EQ(p.route_latency(1, 1), 0.0);
}

TEST(Platform, RouteMetricCacheSurvivesClusterGrowth) {
  Platform p = two_cluster_line();
  p.compute_shortest_path_routes();
  ASSERT_DOUBLE_EQ(p.route_bottleneck_bw(0, 1), 10.0);
  // Adding a cluster migrates the route table and its metric cache.
  const RouterId r2 = p.add_router();
  p.add_backbone(1, r2, 5, 1);
  p.add_cluster(100, 10, r2, "C2");
  EXPECT_DOUBLE_EQ(p.route_bottleneck_bw(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(p.route_latency(0, 1), 0.0);
}

TEST(Platform, RouteMetricCacheInvalidatedBySubdivide) {
  Platform p = two_cluster_line();
  p.compute_shortest_path_routes();
  ASSERT_TRUE(p.has_route(0, 1));
  const RouterId mid = p.add_router("mid");
  p.subdivide_link(0, mid);
  // Routes (and metrics) are dropped until recomputed.
  EXPECT_FALSE(p.has_route(0, 1));
  EXPECT_THROW((void)p.route_bottleneck_bw(0, 1), Error);
  p.compute_shortest_path_routes();
  EXPECT_DOUBLE_EQ(p.route_bottleneck_bw(0, 1), 10.0);
}

// ---- dynamics mutators (ISSUE 4) -------------------------------------------

/// Triangle: C0-C1 (bw 10), C1-C2 (bw 20), C0-C2 (bw 30).
Platform triangle() {
  Platform p;
  const RouterId r0 = p.add_router("r0");
  const RouterId r1 = p.add_router("r1");
  const RouterId r2 = p.add_router("r2");
  p.add_cluster(100, 50, r0, "C0");
  p.add_cluster(100, 50, r1, "C1");
  p.add_cluster(100, 50, r2, "C2");
  p.add_backbone(r0, r1, 10, 4);
  p.add_backbone(r1, r2, 20, 4);
  p.add_backbone(r0, r2, 30, 4);
  p.compute_shortest_path_routes();
  return p;
}

TEST(Platform, SetLinkBandwidthRefreshesOnlyRoutedPairs) {
  Platform p = triangle();
  ASSERT_DOUBLE_EQ(p.route_bottleneck_bw(0, 2), 30.0);
  ASSERT_EQ(p.num_routes_through(2), 2);  // 0->2 and 2->0
  p.set_link_bandwidth(2, 7.5);
  EXPECT_DOUBLE_EQ(p.route_bottleneck_bw(0, 2), 7.5);
  EXPECT_DOUBLE_EQ(p.route_bottleneck_bw(2, 0), 7.5);
  EXPECT_DOUBLE_EQ(p.route_bottleneck_bw(0, 1), 10.0);  // untouched pair
  EXPECT_THROW(p.set_link_bandwidth(0, 0.0), Error);
  EXPECT_THROW(p.set_link_bandwidth(99, 5.0), Error);
  EXPECT_NO_THROW(p.validate());
}

TEST(Platform, SetLinkMaxConnectionsIsMetricNeutral) {
  Platform p = triangle();
  p.set_link_max_connections(0, 11);
  EXPECT_EQ(p.link(0).max_connections, 11);
  EXPECT_DOUBLE_EQ(p.route_bottleneck_bw(0, 1), 10.0);
  EXPECT_THROW(p.set_link_max_connections(0, -1), Error);
}

TEST(Platform, SetClusterMutatorsValidate) {
  Platform p = triangle();
  p.set_cluster_speed(1, 250.0);
  EXPECT_DOUBLE_EQ(p.cluster(1).speed, 250.0);
  p.set_cluster_speed(1, 0.0);  // zero is legal (NP gadget source)
  p.set_cluster_gateway_bw(1, 12.0);
  EXPECT_DOUBLE_EQ(p.cluster(1).gateway_bw, 12.0);
  EXPECT_THROW(p.set_cluster_speed(1, -1.0), Error);
  EXPECT_THROW(p.set_cluster_gateway_bw(1, 0.0), Error);
}

TEST(Platform, LinkDownReroutesOrDropsAndUpRestores) {
  Platform p = triangle();
  // Down C0-C2: both directions detour via C1.
  EXPECT_EQ(p.set_link_up(2, false), 2);
  EXPECT_EQ(p.set_link_up(2, false), 0);  // idempotent
  ASSERT_TRUE(p.has_route(0, 2));
  EXPECT_EQ(p.route(0, 2).size(), 2u);
  EXPECT_DOUBLE_EQ(p.route_bottleneck_bw(0, 2), 10.0);
  EXPECT_NO_THROW(p.validate());

  // Down C0-C1 too: C0 is fully cut off (4 routes dropped: 0<->1, 0<->2).
  EXPECT_EQ(p.set_link_up(0, false), 4);
  EXPECT_FALSE(p.has_route(0, 1));
  EXPECT_FALSE(p.has_route(2, 0));
  EXPECT_TRUE(p.has_route(1, 2));

  // Restore C0-C2: the four orphaned pairs are offered routes again.
  EXPECT_EQ(p.set_link_up(2, true), 4);
  EXPECT_TRUE(p.has_route(0, 1));  // via r2 now
  EXPECT_EQ(p.route(0, 1).size(), 2u);
  EXPECT_NO_THROW(p.validate());

  // A down link rejects explicit routes through it.
  EXPECT_THROW(p.set_route(0, 1, {0}), Error);
}

TEST(Platform, RemoveClusterShiftsIdsAndKeepsOtherRoutes) {
  Platform p = triangle();
  p.remove_cluster(1);
  ASSERT_EQ(p.num_clusters(), 2);
  // Old C2 is now cluster 1; the 0<->1 routes are old 0<->2 (direct link).
  EXPECT_EQ(p.cluster(1).name, "C2");
  ASSERT_TRUE(p.has_route(0, 1));
  EXPECT_DOUBLE_EQ(p.route_bottleneck_bw(0, 1), 30.0);
  EXPECT_NO_THROW(p.validate());
  // The removed cluster's routes left the link incidence too.
  EXPECT_EQ(p.num_routes_through(0), 0);
  EXPECT_EQ(p.num_routes_through(1), 0);
  EXPECT_EQ(p.num_routes_through(2), 2);
  // Incremental updates keep working against the shifted ids.
  p.set_link_bandwidth(2, 4.0);
  EXPECT_DOUBLE_EQ(p.route_bottleneck_bw(1, 0), 4.0);
}

TEST(Platform, ClearClusterRoutesAndRerouteMissing) {
  Platform p = triangle();
  EXPECT_EQ(p.clear_cluster_routes(1), 4);  // 1<->0, 1<->2
  EXPECT_FALSE(p.has_route(1, 0));
  EXPECT_TRUE(p.has_route(0, 2));
  EXPECT_EQ(p.num_routes_through(0), 0);
  EXPECT_EQ(p.reroute_missing_pairs(), 4);
  EXPECT_TRUE(p.has_route(1, 0));
  EXPECT_NO_THROW(p.validate());
}

TEST(Platform, RecoveryIsConfinedToSeveredPairs) {
  // A deliberately partial route table: the triangle is fully linked but
  // only the 0<->1 pairs are routed (an author-imposed isolation
  // policy). A failure/repair cycle must not quietly route the pairs
  // the table excluded.
  Platform p;
  const RouterId r0 = p.add_router();
  const RouterId r1 = p.add_router();
  const RouterId r2 = p.add_router();
  p.add_cluster(100, 50, r0);
  p.add_cluster(100, 50, r1);
  p.add_cluster(100, 50, r2);
  const LinkId l01 = p.add_backbone(r0, r1, 10, 4);
  p.add_backbone(r1, r2, 20, 4);
  p.add_backbone(r0, r2, 30, 4);
  p.set_route(0, 1, {l01});
  p.set_route(1, 0, {l01});

  // Down: both routed pairs detour via r2; nothing else appears.
  EXPECT_EQ(p.set_link_up(l01, false), 2);
  EXPECT_TRUE(p.has_route(0, 1));
  EXPECT_FALSE(p.has_route(0, 2));
  EXPECT_FALSE(p.has_route(2, 1));
  // Up: the detoured pairs kept routes, so nothing was severed and the
  // repair is a no-op — in particular the excluded pairs stay excluded.
  EXPECT_EQ(p.set_link_up(l01, true), 0);
  EXPECT_FALSE(p.has_route(0, 2));
  EXPECT_FALSE(p.has_route(1, 2));

  // Cut both of C0's links: its pairs are severed; repair restores
  // exactly them and still never routes the excluded pairs.
  (void)p.set_link_up(l01, false);
  EXPECT_EQ(p.set_link_up(2, false), 2);  // 0<->1 detours die with (r0,r2)
  EXPECT_FALSE(p.has_route(0, 1));
  EXPECT_EQ(p.set_link_up(2, true), 2);
  EXPECT_TRUE(p.has_route(0, 1));
  EXPECT_TRUE(p.has_route(1, 0));
  EXPECT_FALSE(p.has_route(0, 2));
  EXPECT_FALSE(p.has_route(2, 1));
  EXPECT_NO_THROW(p.validate());
}

TEST(Platform, IncrementalCacheMatchesFullRecomputeOracle) {
  // Randomized cross-check: a stream of bandwidth rescales served by the
  // incremental path must leave the caches exactly where a full
  // recompute puts them.
  Platform p;
  const int n = 9;
  for (int i = 0; i < n; ++i) p.add_router();
  for (int i = 0; i < n; ++i) p.add_cluster(100, 50, i);
  Rng rng(71);
  for (int a = 0; a < n; ++a)
    for (int b = a + 1; b < n; ++b)
      if (rng.bernoulli(0.5))
        p.add_backbone(a, b, rng.uniform(5.0, 50.0),
                       static_cast<int>(rng.uniform_int(1, 40)));
  p.compute_shortest_path_routes();
  Platform oracle = p;

  for (int step = 0; step < 50; ++step) {
    const auto link = static_cast<LinkId>(rng.index(p.num_links()));
    const double bw = rng.uniform(1.0, 60.0);
    p.set_link_bandwidth(link, bw);
    oracle.set_link_bandwidth(link, bw);
  }
  oracle.compute_shortest_path_routes();
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      ASSERT_EQ(p.has_route(a, b), oracle.has_route(a, b));
      if (!p.has_route(a, b)) continue;
      EXPECT_EQ(p.route_bottleneck_bw(a, b), oracle.route_bottleneck_bw(a, b))
          << a << "->" << b;
      EXPECT_EQ(p.route_latency(a, b), oracle.route_latency(a, b));
    }
  }
}

}  // namespace
}  // namespace dls::platform
