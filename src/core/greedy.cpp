// The greedy heuristic G (paper §5.1) and the shared residual-capacity
// pass that LPRG reuses on top of a rounded LP solution.
//
// Interpretation notes (documented in DESIGN.md):
//  * Only clusters with positive payoff host applications; the rest never
//    appear in the candidate list L but still offer CPU/gateway capacity.
//  * Application selection minimizes alpha_k * payoff_k; ties go to the
//    higher payoff (the paper's prose; its lexicographic formula would
//    order ties the other way).
//  * The local-allocation cap (step 5) measures what another application
//    m could have run on C^k, so it is computed along the m -> k route
//    direction.
//  * If the local cap is zero (no other application could reach C^k at
//    all) the application takes the whole remaining local speed; the
//    paper leaves this case unspecified and the heuristic would otherwise
//    loop forever allocating zero.
#include "core/heuristics.hpp"
#include "core/internal.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace dls::core {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

namespace internal {

GreedyState GreedyState::fresh(const SteadyStateProblem& problem) {
  const platform::Platform& plat = problem.plat();
  GreedyState st{Allocation(plat.num_clusters()), {}, {}, {}};
  const int n = plat.num_clusters();
  st.res_speed.resize(n);
  st.res_gateway.resize(n);
  for (int k = 0; k < n; ++k) {
    st.res_speed[k] = plat.cluster(k).speed;
    st.res_gateway[k] = plat.cluster(k).gateway_bw;
  }
  st.res_maxcon.resize(plat.num_links());
  for (platform::LinkId li = 0; li < plat.num_links(); ++li)
    st.res_maxcon[li] = plat.link(li).max_connections;
  return st;
}

GreedyState GreedyState::after(const SteadyStateProblem& problem,
                               const Allocation& alloc) {
  GreedyState st = fresh(problem);
  const int n = problem.num_clusters();
  st.alloc = alloc;
  for (int l = 0; l < n; ++l) st.res_speed[l] -= alloc.load_on(l);
  for (int k = 0; k < n; ++k) st.res_gateway[k] -= alloc.gateway_traffic(k);
  for (platform::LinkId li = 0; li < problem.plat().num_links(); ++li)
    for (int r : problem.routes_through_link()[li]) {
      const auto& route = problem.routes()[r];
      st.res_maxcon[li] -= alloc.beta(route.k, route.l);
    }
  for (int k = 0; k < n; ++k) {
    require(st.res_speed[k] >= -1e-6 && st.res_gateway[k] >= -1e-6,
            "GreedyState::after: allocation already exceeds capacities");
    st.res_speed[k] = std::max(0.0, st.res_speed[k]);
    st.res_gateway[k] = std::max(0.0, st.res_gateway[k]);
  }
  for (double& m : st.res_maxcon) m = std::max(0.0, m);
  return st;
}

void greedy_fill(const SteadyStateProblem& problem, GreedyState& st,
                 const GreedyOptions& options) {
  const platform::Platform& plat = problem.plat();
  const int n = problem.num_clusters();
  const std::vector<double>& payoff = problem.payoffs();

  std::vector<int> live;  // applications still in the candidate list L
  // total[k] caches st.alloc.total_alpha(k): only add_alpha(k, .) moves
  // it, so step 3 reads the cache and the one application that grew
  // recomputes its own sum (the same ordered sum, hence the same bits).
  std::vector<double> total(static_cast<std::size_t>(n), 0.0);
  for (int k = 0; k < n; ++k) {
    if (payoff[k] <= 0.0) continue;
    live.push_back(k);
    total[k] = st.alloc.total_alpha(k);
  }

  // Generous termination guard; every iteration either consumes capacity
  // or removes an application, so this should never trigger.
  double total_maxcon = 0.0;
  for (double m : st.res_maxcon) total_maxcon += m;
  long guard = 1000 + 50L * n * n + 20L * static_cast<long>(total_maxcon) +
               20L * static_cast<long>(st.res_speed.size()) * 100;

  while (!live.empty()) {
    require(guard-- > 0, "greedy_fill: step guard exceeded (non-termination bug)");

    // Step 3: application with the smallest alpha_k * payoff_k; ties to
    // the larger payoff, then the lower index for determinism.
    int k = -1;
    double best_key = std::numeric_limits<double>::infinity();
    for (int cand : live) {
      const double key = total[cand] * payoff[cand];
      if (key < best_key - kEps ||
          (key < best_key + kEps &&
           (k < 0 || payoff[cand] > payoff[k] + kEps))) {
        best_key = std::min(best_key, key);
        k = cand;
      }
    }
    DLS_ASSERT(k >= 0);

    // Step 4: most profitable target cluster for one connection's worth.
    int l = k;
    double best_benefit = st.res_speed[k];  // local candidate
    for (int m = 0; m < n; ++m) {
      if (m == k) continue;
      const int r = problem.route_id(k, m);
      if (r < 0) continue;
      bool connection_free = true;
      for (platform::LinkId li : plat.route(k, m)) {
        if (st.res_maxcon[li] < 1.0 - kEps) {
          connection_free = false;
          break;
        }
      }
      if (!connection_free) continue;
      const double benefit =
          std::min({st.res_gateway[k], problem.routes()[r].pbw, st.res_gateway[m],
                    st.res_speed[m]});
      if (benefit > best_benefit + kEps) {
        best_benefit = benefit;
        l = m;
      }
    }

    if (best_benefit <= kEps) {
      live.erase(std::find(live.begin(), live.end(), k));
      continue;
    }

    if (l != k) {
      // Step 5/6, remote: one connection carrying `best_benefit` load.
      const double amount = best_benefit;
      st.res_speed[l] -= amount;
      st.res_gateway[k] -= amount;
      st.res_gateway[l] -= amount;
      for (platform::LinkId li : plat.route(k, l)) st.res_maxcon[li] -= 1.0;
      st.alloc.add_alpha(k, l, amount);
      if (!plat.route(k, l).empty()) st.alloc.add_beta(k, l, 1.0);
    } else {
      // Step 5/6, local: cap at the largest amount any other application
      // could have run here (m -> k direction), to keep C^k useful.
      double cap = 0.0;
      for (int m = 0; m < n; ++m) {
        if (m == k) continue;
        const int r = problem.route_id(m, k);
        if (r < 0) continue;
        cap = std::max(cap, std::min({st.res_gateway[k], problem.routes()[r].pbw,
                                      st.res_gateway[m], st.res_speed[k]}));
      }
      double amount = cap;
      if (cap <= kEps) {
        if (options.local_exhaust == LocalExhaustPolicy::DropApplication) {
          live.erase(std::find(live.begin(), live.end(), k));
          continue;
        }
        amount = st.res_speed[k];
      }
      st.res_speed[k] -= amount;
      st.alloc.add_alpha(k, k, amount);
    }
    total[k] = st.alloc.total_alpha(k);
    // Clamp tolerance-level negatives so later mins stay clean.
    st.res_speed[l] = std::max(0.0, st.res_speed[l]);
    st.res_gateway[k] = std::max(0.0, st.res_gateway[k]);
    st.res_gateway[l] = std::max(0.0, st.res_gateway[l]);
  }
}

}  // namespace internal

HeuristicResult run_greedy(const SteadyStateProblem& problem,
                           const GreedyOptions& options) {
  internal::GreedyState st = internal::GreedyState::fresh(problem);
  internal::greedy_fill(problem, st, options);
  HeuristicResult result{std::move(st.alloc), 0.0, 0, lp::SolveStatus::Optimal};
  result.objective = problem.objective_of(result.allocation);
  return result;
}

HeuristicResult run_greedy_warm(const SteadyStateProblem& problem,
                                const Allocation& previous,
                                const GreedyOptions& options) {
  const int n = problem.num_clusters();
  require(previous.num_clusters() == n,
          "run_greedy_warm: allocation size does not match problem");
  // Restrict the seed to the problem's current applications: routes owned
  // by a payoff-0 cluster drop out entirely, releasing their compute,
  // gateway and connection capacities for the greedy pass to re-assign.
  Allocation seed(n);
  for (const auto& route : problem.routes()) {
    if (problem.payoffs()[route.k] <= 0.0) continue;
    seed.set_alpha(route.k, route.l, previous.alpha(route.k, route.l));
    if (route.needs_beta)
      seed.set_beta(route.k, route.l, previous.beta(route.k, route.l));
  }
  internal::GreedyState st = internal::GreedyState::after(problem, seed);
  internal::greedy_fill(problem, st, options);
  HeuristicResult result{std::move(st.alloc), 0.0, 0, lp::SolveStatus::Optimal};
  result.objective = problem.objective_of(result.allocation);
  return result;
}

}  // namespace dls::core
