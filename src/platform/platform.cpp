#include "platform/platform.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

namespace dls::platform {

RouterId Platform::add_router(std::string name) {
  router_names_.push_back(std::move(name));
  return num_routers() - 1;
}

ClusterId Platform::add_cluster(double speed, double gateway_bw, RouterId router,
                                std::string name) {
  check_router(router);
  require(speed >= 0.0 && std::isfinite(speed), "add_cluster: invalid speed");
  require(gateway_bw > 0.0 && std::isfinite(gateway_bw),
          "add_cluster: gateway bandwidth must be positive");
  // Migrate the route table from K*K to (K+1)*(K+1) indexing.
  const int old_k = num_clusters();
  clusters_.push_back({speed, gateway_bw, router, std::move(name)});
  const int new_k = num_clusters();
  if (!routes_.empty()) {
    std::vector<std::vector<LinkId>> routes(static_cast<std::size_t>(new_k) * new_k);
    std::vector<char> present(static_cast<std::size_t>(new_k) * new_k, 0);
    std::vector<double> pbw(static_cast<std::size_t>(new_k) * new_k, 0.0);
    std::vector<double> lat(static_cast<std::size_t>(new_k) * new_k, 0.0);
    for (int k = 0; k < old_k; ++k) {
      for (int l = 0; l < old_k; ++l) {
        routes[static_cast<std::size_t>(k) * new_k + l] =
            std::move(routes_[static_cast<std::size_t>(k) * old_k + l]);
        present[static_cast<std::size_t>(k) * new_k + l] =
            route_present_[static_cast<std::size_t>(k) * old_k + l];
        pbw[static_cast<std::size_t>(k) * new_k + l] =
            route_pbw_[static_cast<std::size_t>(k) * old_k + l];
        lat[static_cast<std::size_t>(k) * new_k + l] =
            route_latency_sum_[static_cast<std::size_t>(k) * old_k + l];
      }
    }
    routes_ = std::move(routes);
    route_present_ = std::move(present);
    route_pbw_ = std::move(pbw);
    route_latency_sum_ = std::move(lat);
  }
  return new_k - 1;
}

LinkId Platform::add_backbone(RouterId a, RouterId b, double bw, int max_connections,
                              std::string name, double latency) {
  check_router(a);
  check_router(b);
  require(a != b, "add_backbone: self-loop backbone link");
  require(bw > 0.0 && std::isfinite(bw), "add_backbone: bandwidth must be positive");
  require(max_connections >= 0, "add_backbone: negative max_connections");
  require(latency >= 0.0 && std::isfinite(latency), "add_backbone: negative latency");
  links_.push_back({a, b, bw, max_connections, latency, true, std::move(name)});
  if (!routes_.empty()) link_pairs_.resize(links_.size());
  return num_links() - 1;
}

LinkId Platform::subdivide_link(LinkId i, RouterId mid) {
  check_link(i);
  check_router(mid);
  require(mid != links_[i].a && mid != links_[i].b,
          "subdivide_link: midpoint already an endpoint");
  const RouterId tail = links_[i].b;
  const double bw = links_[i].bw;
  const int maxcon = links_[i].max_connections;
  const double half_latency = links_[i].latency / 2.0;
  const std::string half_name = links_[i].name.empty() ? "" : links_[i].name + "+";
  links_[i].b = mid;
  links_[i].latency = half_latency;  // halves sum to the original latency
  // Existing routes may traverse the shortened link; drop them all.
  routes_.clear();
  route_present_.clear();
  route_pbw_.clear();
  route_latency_sum_.clear();
  link_pairs_.clear();
  severed_pairs_.clear();
  return add_backbone(mid, tail, bw, maxcon, half_name, half_latency);
}

const Cluster& Platform::cluster(ClusterId k) const {
  check_cluster(k);
  return clusters_[k];
}

const BackboneLink& Platform::link(LinkId i) const {
  check_link(i);
  return links_[i];
}

const std::string& Platform::router_name(RouterId r) const {
  check_router(r);
  return router_names_[r];
}

void Platform::set_route(ClusterId k, ClusterId l, std::vector<LinkId> links) {
  check_cluster(k);
  check_cluster(l);
  require(k != l, "set_route: local pairs need no route");
  // Validate the ordered list walks from router(k) to router(l).
  RouterId at = clusters_[k].router;
  for (LinkId li : links) {
    check_link(li);
    const BackboneLink& bl = links_[li];
    if (!bl.up) throw Error("set_route: link " + std::to_string(li) + " is down");
    if (bl.a == at) {
      at = bl.b;
    } else if (bl.b == at) {
      at = bl.a;
    } else {
      throw Error("set_route: link " + std::to_string(li) +
                  " does not continue the path");
    }
  }
  require(at == clusters_[l].router, "set_route: path does not end at target router");

  ensure_tables();
  install_route(k, l, std::move(links));
}

void Platform::clear_route(ClusterId k, ClusterId l) {
  check_cluster(k);
  check_cluster(l);
  require(k != l, "clear_route: local pairs have no route");
  if (routes_.empty()) return;
  drop_route(k, l);
}

bool Platform::has_route(ClusterId k, ClusterId l) const {
  check_cluster(k);
  check_cluster(l);
  if (k == l) return true;
  if (routes_.empty()) return false;
  return route_present_[route_index(k, l)] != 0;
}

std::span<const LinkId> Platform::route(ClusterId k, ClusterId l) const {
  require(has_route(k, l), "route: no route installed for this pair");
  if (k == l) return {};
  return routes_[route_index(k, l)];
}

double Platform::route_bottleneck_bw(ClusterId k, ClusterId l) const {
  require(has_route(k, l), "route: no route installed for this pair");
  if (k == l) return std::numeric_limits<double>::infinity();
  return route_pbw_[route_index(k, l)];
}

double Platform::route_latency(ClusterId k, ClusterId l) const {
  require(has_route(k, l), "route: no route installed for this pair");
  if (k == l) return 0.0;
  return route_latency_sum_[route_index(k, l)];
}

void Platform::refresh_route_metrics(ClusterId k, ClusterId l) {
  double bw = std::numeric_limits<double>::infinity();
  double lat = 0.0;
  for (LinkId li : routes_[route_index(k, l)]) {
    bw = std::min(bw, links_[li].bw);
    lat += links_[li].latency;
  }
  route_pbw_[route_index(k, l)] = bw;
  route_latency_sum_[route_index(k, l)] = lat;
}

void Platform::ensure_tables() {
  if (!routes_.empty()) return;
  const int n = num_clusters();
  routes_.assign(static_cast<std::size_t>(n) * n, {});
  route_present_.assign(static_cast<std::size_t>(n) * n, 0);
  route_pbw_.assign(static_cast<std::size_t>(n) * n, 0.0);
  route_latency_sum_.assign(static_cast<std::size_t>(n) * n, 0.0);
  link_pairs_.assign(links_.size(), {});
}

void Platform::install_route(ClusterId k, ClusterId l, std::vector<LinkId> path) {
  drop_route(k, l);
  const std::size_t idx = route_index(k, l);
  for (LinkId li : path) link_pairs_[li].push_back({k, l});
  routes_[idx] = std::move(path);
  route_present_[idx] = 1;
  refresh_route_metrics(k, l);
  // A routed pair is no longer severed.
  severed_pairs_.erase({k, l});
}

void Platform::mark_severed(ClusterId k, ClusterId l) {
  severed_pairs_.insert({k, l});
}

void Platform::drop_route(ClusterId k, ClusterId l) {
  const std::size_t idx = route_index(k, l);
  if (!route_present_[idx]) return;
  for (LinkId li : routes_[idx]) {
    auto& pairs = link_pairs_[li];
    pairs.erase(std::find(pairs.begin(), pairs.end(), std::make_pair(k, l)));
  }
  routes_[idx].clear();
  route_present_[idx] = 0;
}

std::vector<std::vector<std::pair<RouterId, LinkId>>> Platform::up_adjacency()
    const {
  // Adjacency sorted by (neighbor, link id) for deterministic BFS trees.
  std::vector<std::vector<std::pair<RouterId, LinkId>>> adj(num_routers());
  for (LinkId i = 0; i < num_links(); ++i) {
    if (!links_[i].up) continue;
    adj[links_[i].a].push_back({links_[i].b, i});
    adj[links_[i].b].push_back({links_[i].a, i});
  }
  for (auto& nbrs : adj) std::sort(nbrs.begin(), nbrs.end());
  return adj;
}

void Platform::bfs(RouterId src,
                   const std::vector<std::vector<std::pair<RouterId, LinkId>>>& adj,
                   BfsTree& tree) const {
  const int r = num_routers();
  tree.parent.assign(r, -1);
  tree.parent_link.assign(r, -1);
  tree.seen.assign(r, 0);
  std::deque<RouterId> queue{src};
  tree.seen[src] = 1;
  while (!queue.empty()) {
    const RouterId at = queue.front();
    queue.pop_front();
    for (const auto& [next, li] : adj[at]) {
      if (tree.seen[next]) continue;
      tree.seen[next] = 1;
      tree.parent[next] = at;
      tree.parent_link[next] = li;
      queue.push_back(next);
    }
  }
}

std::vector<LinkId> Platform::tree_path(const BfsTree& tree, RouterId src,
                                        RouterId dst) const {
  std::vector<LinkId> path;
  for (RouterId at = dst; at != src; at = tree.parent[at])
    path.push_back(tree.parent_link[at]);
  std::reverse(path.begin(), path.end());
  return path;
}

int Platform::reroute_pairs(
    const std::vector<std::pair<ClusterId, ClusterId>>& pairs,
    bool drop_unreachable) {
  if (pairs.empty()) return 0;
  const auto adj = up_adjacency();
  int changed = 0;
  // One BFS per distinct source cluster; `pairs` is grouped by source.
  BfsTree tree;
  ClusterId tree_for = -1;
  for (const auto& [k, l] : pairs) {
    if (k != tree_for) {
      bfs(clusters_[k].router, adj, tree);
      tree_for = k;
    }
    const RouterId src = clusters_[k].router;
    const RouterId dst = clusters_[l].router;
    if (tree.seen[dst]) {
      install_route(k, l, tree_path(tree, src, dst));
      ++changed;
    } else if (drop_unreachable && route_present_[route_index(k, l)]) {
      drop_route(k, l);
      mark_severed(k, l);
      ++changed;
    }
  }
  return changed;
}

void Platform::compute_shortest_path_routes() {
  const int n = num_clusters();
  routes_.assign(static_cast<std::size_t>(n) * n, {});
  route_present_.assign(static_cast<std::size_t>(n) * n, 0);
  route_pbw_.assign(static_cast<std::size_t>(n) * n, 0.0);
  route_latency_sum_.assign(static_cast<std::size_t>(n) * n, 0.0);
  link_pairs_.assign(links_.size(), {});
  severed_pairs_.clear();
  if (n == 0) return;

  const auto adj = up_adjacency();
  BfsTree tree;
  for (ClusterId k = 0; k < n; ++k) {
    const RouterId src = clusters_[k].router;
    bfs(src, adj, tree);
    for (ClusterId l = 0; l < n; ++l) {
      if (l == k) continue;
      const RouterId dst = clusters_[l].router;
      if (!tree.seen[dst]) continue;  // unreachable: no route
      install_route(k, l, tree_path(tree, src, dst));
    }
  }
}

void Platform::set_link_bandwidth(LinkId i, double bw) {
  check_link(i);
  require(bw > 0.0 && std::isfinite(bw),
          "set_link_bandwidth: bandwidth must be positive");
  links_[i].bw = bw;
  if (routes_.empty()) return;
  for (const auto& [k, l] : link_pairs_[i]) refresh_route_metrics(k, l);
}

void Platform::set_link_max_connections(LinkId i, int max_connections) {
  check_link(i);
  require(max_connections >= 0,
          "set_link_max_connections: negative max_connections");
  links_[i].max_connections = max_connections;
}

int Platform::set_link_up(LinkId i, bool up, const RouteFilter& eligible) {
  check_link(i);
  if (links_[i].up == up) return 0;
  links_[i].up = up;
  if (routes_.empty()) return 0;
  if (!up) {
    // Orphaned pairs: everything routed through the failed link. The
    // incidence list mutates as routes are replaced, so walk a copy,
    // grouped by source to share BFS trees.
    auto orphans = link_pairs_[i];
    std::sort(orphans.begin(), orphans.end());
    return reroute_pairs(orphans, /*drop_unreachable=*/true);
  }
  return reroute_missing_pairs(eligible);
}

void Platform::set_cluster_speed(ClusterId k, double speed) {
  check_cluster(k);
  require(speed >= 0.0 && std::isfinite(speed),
          "set_cluster_speed: invalid speed");
  clusters_[k].speed = speed;
}

void Platform::set_cluster_gateway_bw(ClusterId k, double gateway_bw) {
  check_cluster(k);
  require(gateway_bw > 0.0 && std::isfinite(gateway_bw),
          "set_cluster_gateway_bw: gateway bandwidth must be positive");
  clusters_[k].gateway_bw = gateway_bw;
}

int Platform::clear_cluster_routes(ClusterId k) {
  check_cluster(k);
  if (routes_.empty()) return 0;
  int dropped = 0;
  for (ClusterId l = 0; l < num_clusters(); ++l) {
    if (l == k) continue;
    if (route_present_[route_index(k, l)]) {
      drop_route(k, l);
      mark_severed(k, l);
      ++dropped;
    }
    if (route_present_[route_index(l, k)]) {
      drop_route(l, k);
      mark_severed(l, k);
      ++dropped;
    }
  }
  return dropped;
}

int Platform::num_routes_through(LinkId i) const {
  check_link(i);
  if (routes_.empty()) return 0;
  return static_cast<int>(link_pairs_[i].size());
}

int Platform::reroute_missing_pairs(const RouteFilter& eligible) {
  if (routes_.empty() || severed_pairs_.empty()) return 0;
  // Only pairs a failure/churn mutator severed are candidates: a pair a
  // partial route table never routed stays unrouted. install_route
  // un-marks each restored pair, so a (set-ordered, i.e. source-grouped)
  // copy is walked.
  std::vector<std::pair<ClusterId, ClusterId>> candidates;
  candidates.reserve(severed_pairs_.size());
  for (const auto& [k, l] : severed_pairs_)
    if (!eligible || eligible(k, l)) candidates.push_back({k, l});
  return reroute_pairs(candidates, /*drop_unreachable=*/false);
}

void Platform::remove_cluster(ClusterId k) {
  check_cluster(k);
  const int old_k = num_clusters();
  const int new_k = old_k - 1;
  if (!routes_.empty()) {
    clear_cluster_routes(k);  // also scrubs the link incidence
    std::vector<std::vector<LinkId>> routes(static_cast<std::size_t>(new_k) * new_k);
    std::vector<char> present(static_cast<std::size_t>(new_k) * new_k, 0);
    std::vector<double> pbw(static_cast<std::size_t>(new_k) * new_k, 0.0);
    std::vector<double> lat(static_cast<std::size_t>(new_k) * new_k, 0.0);
    for (int a = 0; a < old_k; ++a) {
      if (a == k) continue;
      const int na = a - (a > k);
      for (int b = 0; b < old_k; ++b) {
        if (b == k) continue;
        const int nb = b - (b > k);
        const std::size_t from = static_cast<std::size_t>(a) * old_k + b;
        const std::size_t to = static_cast<std::size_t>(na) * new_k + nb;
        routes[to] = std::move(routes_[from]);
        present[to] = route_present_[from];
        pbw[to] = route_pbw_[from];
        lat[to] = route_latency_sum_[from];
      }
    }
    routes_ = std::move(routes);
    route_present_ = std::move(present);
    route_pbw_ = std::move(pbw);
    route_latency_sum_ = std::move(lat);
    for (auto& pairs : link_pairs_) {
      for (auto& [a, b] : pairs) {
        a -= a > k;
        b -= b > k;
      }
    }
    std::set<std::pair<ClusterId, ClusterId>> severed;
    for (const auto& [a, b] : severed_pairs_) {
      if (a == k || b == k) continue;
      severed.insert({a - (a > k), b - (b > k)});
    }
    severed_pairs_ = std::move(severed);
  }
  clusters_.erase(clusters_.begin() + k);
}

void Platform::validate() const {
  for (const Cluster& c : clusters_) {
    require(c.router >= 0 && c.router < num_routers(), "validate: dangling router id");
    require(c.gateway_bw > 0.0, "validate: non-positive gateway bandwidth");
    require(c.speed >= 0.0, "validate: negative speed");
  }
  for (const BackboneLink& l : links_) {
    require(l.a >= 0 && l.a < num_routers() && l.b >= 0 && l.b < num_routers(),
            "validate: dangling link endpoint");
    require(l.bw > 0.0, "validate: non-positive link bandwidth");
    require(l.max_connections >= 0, "validate: negative max_connections");
  }
  const int n = num_clusters();
  if (!routes_.empty()) {
    require(routes_.size() == static_cast<std::size_t>(n) * n,
            "validate: route table size mismatch");
    for (ClusterId k = 0; k < n; ++k) {
      for (ClusterId l = 0; l < n; ++l) {
        if (k == l || !route_present_[route_index(k, l)]) continue;
        RouterId at = clusters_[k].router;
        for (LinkId li : routes_[route_index(k, l)]) {
          require(li >= 0 && li < num_links(), "validate: dangling route link");
          const BackboneLink& bl = links_[li];
          require(bl.up, "validate: route traverses a down link");
          require(bl.a == at || bl.b == at, "validate: broken route path");
          at = bl.a == at ? bl.b : bl.a;
        }
        require(at == clusters_[l].router, "validate: route does not reach target");
      }
    }
  }
}

void Platform::check_cluster(ClusterId k) const {
  require(k >= 0 && k < num_clusters(), "Platform: cluster id out of range");
}

void Platform::check_router(RouterId r) const {
  require(r >= 0 && r < num_routers(), "Platform: router id out of range");
}

void Platform::check_link(LinkId i) const {
  require(i >= 0 && i < num_links(), "Platform: link id out of range");
}

std::size_t Platform::route_index(ClusterId k, ClusterId l) const {
  return static_cast<std::size_t>(k) * num_clusters() + l;
}

}  // namespace dls::platform
