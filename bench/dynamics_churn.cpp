// Platform-dynamics benchmark (src/dynamics/, ISSUE 4). Two questions
// per platform size K:
//
//   1. Incremental route-cache maintenance: a bandwidth event refreshes
//      only the pairs routed through the touched link (Platform's
//      per-link incidence), while the pre-dynamics strategy rebuilds
//      every route and metric from scratch. Both paths replay the same
//      capacity-event sequence; the end states are checked identical
//      over all K^2 pairs, and the headline is
//          cache_speedup = full_rebuild_seconds / incremental_seconds,
//      expected >> 1 from K = 64 up (gated in CI).
//
//   2. Churn-aware warm re-solves: after each capacity event the
//      rescheduler (single-load mode, LP bound, one load per cluster)
//      re-solves the steady state. The warm
//      replica carries its simplex capsule across the event — restored
//      whole when only rhs/bounds moved, basis-repaired when the event
//      re-priced matrix coefficients (the simplex's statuses-only
//      retry, lp::WarmKind::Basis) — while the cold replica re-solves
//      from scratch. Both reach the same LP optimum (asserted); the
//      headline is
//          warm_cold_ratio = mean warm ms / mean cold ms,
//      expected well below 1 for K >= 64 (gated in CI).
//
//   3. Churn-degradation campaign: the committed declarative spec
//      data/dynamics_churn.campaign replays the same Poisson stream
//      against the static platform and against a generated
//      failure/drift/churn trace through the campaign runner, and the
//      response/slowdown degradation is read off the two aggregation
//      groups.
//
// One machine-readable JSON object per K is printed on its own line
// (prefix "JSON "), mirroring the other bench drivers; CI collects
// these into BENCH_dynamics.json at the repo root (the campaign row is
// tagged "dynamics_campaign" so the K-gated assertions skip it).
#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "dynamics/dynamic_platform.hpp"
#include "exp/experiment.hpp"
#include "online/rescheduler.hpp"
#include "platform/generator.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace {

dls::platform::Platform make_platform(int k, std::uint64_t seed) {
  dls::platform::GeneratorParams params;
  params.num_clusters = k;
  params.ensure_connected = true;
  params.num_transit_routers = k / 4;  // longer routes stress the caches
  dls::Rng rng(seed + 7919 * static_cast<std::uint64_t>(k));
  return generate_platform(params, rng);
}

/// Deterministic capacity-event sequence: link i (cyclic) rescaled to
/// factor alternating below/above its base bandwidth.
struct BwEvent {
  dls::platform::LinkId link;
  double bw;
};

std::vector<BwEvent> make_bw_events(const dls::platform::Platform& plat,
                                    int count, dls::Rng& rng) {
  std::vector<BwEvent> events;
  events.reserve(count);
  for (int i = 0; i < count; ++i) {
    const auto link =
        static_cast<dls::platform::LinkId>(rng.index(plat.num_links()));
    const double factor = rng.uniform(0.4, 1.6);
    events.push_back({link, plat.link(link).bw * factor});
  }
  return events;
}

}  // namespace

int main() try {
  using namespace dls;
  const std::uint64_t seed = exp::bench_seed();

  std::cout << "# Platform dynamics: incremental pbw-cache updates vs full "
               "recompute,\n"
            << "# and warm/repaired vs cold re-solves across capacity events\n";

  std::vector<std::string> json_lines;
  for (const int k : {16, 64, 256}) {
    const platform::Platform base = make_platform(k, seed);
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(k));

    // ---- 1. incremental cache update vs rebuild-from-scratch oracle ----
    const int cache_events = exp::scaled(k >= 256 ? 40 : 120);
    const std::vector<BwEvent> events = make_bw_events(base, cache_events, rng);

    platform::Platform incremental = base;
    WallTimer inc_timer;
    for (const BwEvent& e : events)
      incremental.set_link_bandwidth(e.link, e.bw);
    const double inc_seconds = inc_timer.seconds();

    platform::Platform rebuilt = base;
    double full_seconds = 0.0;
    for (const BwEvent& e : events) {
      rebuilt.set_link_bandwidth(e.link, e.bw);
      // Time only the full recompute itself: the oracle strategy's cost
      // is the rebuild, not the (incremental) bandwidth store.
      WallTimer full_timer;
      rebuilt.compute_shortest_path_routes();
      full_seconds += full_timer.seconds();
    }

    // End states must agree over every pair (same topology, same BFS).
    bool caches_match = true;
    for (int a = 0; a < k && caches_match; ++a) {
      for (int b = 0; b < k; ++b) {
        if (incremental.has_route(a, b) != rebuilt.has_route(a, b)) {
          caches_match = false;
          break;
        }
        if (!incremental.has_route(a, b)) continue;
        if (incremental.route_bottleneck_bw(a, b) !=
            rebuilt.route_bottleneck_bw(a, b)) {
          caches_match = false;
          break;
        }
      }
    }
    if (!caches_match) {
      std::cerr << "FATAL: incremental cache diverged from the rebuild oracle "
                   "at K="
                << k << "\n";
      return 1;
    }
    const double cache_speedup =
        inc_seconds > 0.0 ? full_seconds / inc_seconds : 0.0;

    // ---- 2. warm/repaired vs cold re-solves under capacity churn ----
    const int resolve_events = exp::scaled(k >= 256 ? 8 : (k >= 64 ? 24 : 48));
    const std::vector<BwEvent> churn = make_bw_events(base, resolve_events, rng);
    // One unit-weight load per cluster: the canonical problem.
    std::vector<online::ActiveLoad> loads;
    for (int c = 0; c < k; ++c) loads.push_back({c, c, 1.0});

    online::ReschedulerOptions opt;
    opt.method = online::Method::LpBound;
    opt.objective = core::Objective::Sum;
    online::ReschedulerOptions cold_opt = opt;
    cold_opt.warm = online::WarmPolicy::Never;

    dynamics::DynamicPlatform dyn(base);
    online::MultiLoadRescheduler warm_sched(dyn.plat(), opt);
    online::MultiLoadRescheduler cold_sched(dyn.plat(), cold_opt);
    // Prime both replicas. The warm side's priming solve lands in its
    // *cold* stats bucket (first solve has no capsule) so its warm mean
    // is per-event by construction; the cold side's priming solve is
    // snapshot here and subtracted so its mean is per-event too.
    (void)warm_sched.reschedule(loads);
    (void)cold_sched.reschedule(loads);
    const online::MultiLoadRescheduler::Stats cold_prime = cold_sched.stats();

    double objective_gap = 0.0;
    for (const BwEvent& e : churn) {
      dyn.apply({0.0, dynamics::EventKind::LinkBandwidth, e.link, e.bw});
      warm_sched.platform_capacity_changed();
      cold_sched.platform_capacity_changed();
      const online::MultiReschedule w = warm_sched.reschedule(loads);
      const online::MultiReschedule c = cold_sched.reschedule(loads);
      objective_gap = std::max(
          objective_gap, std::fabs(w.objective - c.objective) /
                             std::max(1.0, std::fabs(c.objective)));
    }
    if (objective_gap > 1e-6) {
      std::cerr << "FATAL: warm re-solve diverged from cold optimum at K=" << k
                << " (relative gap " << objective_gap << ")\n";
      return 1;
    }

    const auto& ws = warm_sched.stats();
    const auto& cs = cold_sched.stats();
    const int cold_events = cs.cold_solves - cold_prime.cold_solves;
    const double cold_event_seconds = cs.cold_seconds - cold_prime.cold_seconds;
    const double warm_ms =
        ws.warm_solves > 0 ? 1e3 * ws.warm_seconds / ws.warm_solves : 0.0;
    const double cold_ms =
        cold_events > 0 ? 1e3 * cold_event_seconds / cold_events : 0.0;
    const double ratio = cold_ms > 0.0 ? warm_ms / cold_ms : 0.0;

    std::cout << "K=" << k << ": " << cache_events << " capacity events, cache "
              << 1e3 * inc_seconds << " ms incremental vs " << 1e3 * full_seconds
              << " ms full rebuild (speedup " << cache_speedup << "x); "
              << resolve_events << " re-solves, " << warm_ms << " ms warm ("
              << ws.repaired_solves << " repaired) vs " << cold_ms
              << " ms cold (ratio " << ratio << ")\n";

    std::ostringstream js;
    js.precision(6);
    js << "{\"bench\":\"dynamics\",\"k\":" << k
       << ",\"links\":" << base.num_links()
       << ",\"cache_events\":" << cache_events
       << ",\"incremental_seconds\":" << inc_seconds
       << ",\"full_seconds\":" << full_seconds
       << ",\"cache_speedup\":" << cache_speedup
       << ",\"resolve_events\":" << resolve_events
       << ",\"warm_solves\":" << ws.warm_solves
       << ",\"repaired_solves\":" << ws.repaired_solves
       << ",\"warm_mean_ms\":" << warm_ms
       << ",\"cold_solves\":" << cold_events
       << ",\"cold_mean_ms\":" << cold_ms
       << ",\"warm_cold_ratio\":" << ratio
       << ",\"objective_gap\":" << objective_gap << "}";
    json_lines.push_back(js.str());
  }
  // ---- 3. churn-degradation campaign from the committed spec ----
  {
    campaign::ScenarioSpec spec = campaign::read_campaign_file(
        {"data/dynamics_churn.campaign", "../data/dynamics_churn.campaign"});
    spec.replications = exp::scaled(spec.replications);

    campaign::RunnerOptions options;
    options.jobs = exp::bench_jobs();
    const campaign::CampaignReport report = campaign::run_campaign(spec, options);

    const auto group_mean = [&](const std::string& scenario,
                                const std::string& metric) {
      return campaign::group_metric_mean(report, scenario, metric);
    };
    const auto ratio = [](double dyn, double base) {
      return base > 0.0 ? dyn / base : 0.0;
    };
    const double response_degradation =
        ratio(group_mean("dynamic", "mean_response"),
              group_mean("static", "mean_response"));
    const double slowdown_degradation =
        ratio(group_mean("dynamic", "mean_slowdown"),
              group_mean("static", "mean_slowdown"));

    std::cout << "campaign '" << spec.name << "': " << report.total_cases
              << " cases (" << spec.replications
              << " replications), response degradation x"
              << response_degradation << ", slowdown x" << slowdown_degradation
              << "\n";

    std::ostringstream js;
    js.precision(6);
    js << "{\"bench\":\"dynamics_campaign\",\"cases\":" << report.total_cases
       << ",\"replications\":" << spec.replications
       << ",\"static_mean_response\":" << group_mean("static", "mean_response")
       << ",\"dynamic_mean_response\":" << group_mean("dynamic", "mean_response")
       << ",\"response_degradation\":" << response_degradation
       << ",\"slowdown_degradation\":" << slowdown_degradation
       << ",\"dynamic_completed\":" << group_mean("dynamic", "completed")
       << ",\"dynamic_aborted\":" << group_mean("dynamic", "aborted") << "}";
    json_lines.push_back(js.str());
  }

  for (const std::string& line : json_lines) std::cout << "JSON " << line << "\n";
  return 0;
} catch (const dls::Error& e) {
  std::cerr << "bench_dynamics_churn: " << e.what() << '\n';
  return 1;
}
