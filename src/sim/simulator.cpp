#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dls::sim {

namespace {

/// Per-link admission scaling: a link opened beyond its max-connect
/// budget degrades every connection proportionally. The floor keeps an
/// inadmissible flow (budget 0) trickling instead of deadlocking the
/// period; its overrun then diverges, which is the observable symptom.
constexpr double kMinAdmission = 1e-6;

/// Minimum RTT under TcpRttBias/BoundedWindow: keeps the weight and the
/// cap finite on zero-latency routes and models host processing delay.
constexpr double kRttFloor = 1e-3;

/// The share weight and extra rate cap the sharing policy gives one
/// item. The engine enforces the cap on top of a flow's connection cap
/// (connections * pbw).
struct Shaping {
  double weight = 1.0;
  double cap = FairShareProblem::kNoCap;
};

/// A flow of `connections` connections over a route of round-trip time
/// `rtt`, reserved `reserved_rate` units / T_p by the schedule.
Shaping shape_flow(const SimOptions& options, double reserved_rate, double rtt,
                   int connections) {
  switch (options.policy) {
    case SharingPolicy::Paced:
      return {1.0, reserved_rate};
    case SharingPolicy::MaxMin:
      return {};
    case SharingPolicy::TcpRttBias:
      return {1.0 / std::max(rtt, kRttFloor), FairShareProblem::kNoCap};
    case SharingPolicy::BoundedWindow:
      return {1.0, connections * options.window_units / std::max(rtt, kRttFloor)};
  }
  throw Error("simulate_schedule: unknown policy");
}

/// A compute job: only Paced throttles it, to its reserved rate.
Shaping shape_job(const SimOptions& options, double reserved_rate) {
  if (options.policy == SharingPolicy::Paced) return {1.0, reserved_rate};
  return {};
}

std::vector<double> link_admission_factors(const platform::Platform& plat,
                                           const core::PeriodicSchedule& schedule,
                                           const std::vector<double>& link_maxcon) {
  std::vector<double> opened(plat.num_links(), 0.0);
  for (const core::Transfer& tr : schedule.transfers)
    for (platform::LinkId li : plat.route(tr.from, tr.to))
      opened[li] += tr.connections;
  std::vector<double> factor(plat.num_links(), 1.0);
  for (platform::LinkId li = 0; li < plat.num_links(); ++li) {
    const double budget = link_maxcon[li];
    if (opened[li] > budget)
      factor[li] = std::max(budget / opened[li], kMinAdmission);
  }
  return factor;
}

void check_revisions(const SimOptions& options, const platform::Platform& plat) {
  int prev = 0;
  for (const CapacityRevision& rev : options.revisions) {
    require(rev.at_period >= prev,
            "simulate_schedule: revisions must be sorted by at_period");
    prev = rev.at_period;
    switch (rev.kind) {
      case CapacityRevision::Kind::GatewayBw:
        require(rev.target >= 0 && rev.target < plat.num_clusters() &&
                    rev.value > 0.0 && std::isfinite(rev.value),
                "simulate_schedule: bad gateway revision");
        break;
      case CapacityRevision::Kind::ClusterSpeed:
        require(rev.target >= 0 && rev.target < plat.num_clusters() &&
                    rev.value >= 0.0 && std::isfinite(rev.value),
                "simulate_schedule: bad speed revision");
        break;
      case CapacityRevision::Kind::LinkBw:
        require(rev.target >= 0 && rev.target < plat.num_links() &&
                    rev.value > 0.0 && std::isfinite(rev.value),
                "simulate_schedule: bad link bandwidth revision");
        break;
      case CapacityRevision::Kind::LinkMaxConnect:
        require(rev.target >= 0 && rev.target < plat.num_links() &&
                    rev.value >= 0.0 && std::isfinite(rev.value),
                "simulate_schedule: bad max-connect revision");
        break;
    }
  }
}

}  // namespace

SimReport simulate_schedule(const core::SteadyStateProblem& problem,
                            const core::PeriodicSchedule& schedule,
                            const SimOptions& options) {
  require(options.periods >= 1 && options.warmup_periods >= 0,
          "simulate_schedule: invalid options");
  require(options.policy != SharingPolicy::BoundedWindow ||
              (options.window_units > 0.0 && std::isfinite(options.window_units)),
          "simulate_schedule: window_units must be positive");
  const platform::Platform& plat = problem.plat();
  const int n = plat.num_clusters();
  check_revisions(options, plat);

  // Capacities the revisions may move mid-run; seeded from the platform.
  std::vector<double> link_bw(plat.num_links());
  std::vector<double> link_maxcon(plat.num_links());
  for (platform::LinkId li = 0; li < plat.num_links(); ++li) {
    link_bw[li] = plat.link(li).bw;
    link_maxcon[li] = plat.link(li).max_connections;
  }

  // Shared resources: gateway link per cluster, then CPU per cluster.
  // (Backbone links are not shared pools in the paper's model: every
  // connection owns bw(l_i), so a flow's backbone allowance is the
  // private cap beta * pbw — scaled down when the link's max-connect
  // budget is oversubscribed.)
  std::vector<double> capacities(2 * n);
  for (int k = 0; k < n; ++k) {
    capacities[k] = plat.cluster(k).gateway_bw;
    capacities[n + k] = std::max(plat.cluster(k).speed, 1e-12);
  }

  const auto period_length = static_cast<double>(schedule.period);

  // Template work items for one period, priced at the current link
  // capacities; rebuilt whenever a link revision moves them.
  std::vector<EngineItem> period_items;
  const auto build_items = [&] {
    const std::vector<double> admission =
        link_admission_factors(plat, schedule, link_maxcon);
    period_items.clear();
    period_items.reserve(schedule.transfers.size() + schedule.compute.size());
    for (const core::Transfer& tr : schedule.transfers) {
      EngineItem item;
      item.size = static_cast<double>(tr.units);
      item.resources = {tr.from, tr.to};  // both gateways
      double pbw = std::numeric_limits<double>::infinity();
      for (platform::LinkId li : plat.route(tr.from, tr.to))
        pbw = std::min(pbw, link_bw[li] * admission[li]);
      const Shaping shaping =
          shape_flow(options, item.size / period_length,
                     2.0 * plat.route_latency(tr.from, tr.to), tr.connections);
      const double connection_cap =
          std::isfinite(pbw) ? tr.connections * pbw : FairShareProblem::kNoCap;
      item.cap = std::min(connection_cap, shaping.cap);
      item.weight = shaping.weight;
      period_items.push_back(std::move(item));
    }
    for (const core::ComputeTask& ct : schedule.compute) {
      EngineItem item;
      item.size = static_cast<double>(ct.units);
      item.resources = {n + ct.on_cluster};
      const Shaping shaping = shape_job(options, item.size / period_length);
      item.cap = shaping.cap;
      item.weight = shaping.weight;
      period_items.push_back(std::move(item));
    }
  };
  build_items();

  SimReport report;
  report.throughput.assign(n, 0.0);

  SimEngine engine(std::move(capacities));
  const int total_periods = options.warmup_periods + options.periods;
  double measured_time = 0.0;
  double max_duration = 0.0;
  std::vector<double> measured_load(n, 0.0);
  std::size_t next_revision = 0;
  for (int p = 0; p < total_periods; ++p) {
    // Period-boundary platform events: capacities move between periods,
    // never inside one (the engine's live rate tables stay consistent).
    bool links_moved = false;
    while (next_revision < options.revisions.size() &&
           options.revisions[next_revision].at_period <= p) {
      const CapacityRevision& rev = options.revisions[next_revision++];
      switch (rev.kind) {
        case CapacityRevision::Kind::GatewayBw:
          engine.set_capacity(rev.target, rev.value);
          break;
        case CapacityRevision::Kind::ClusterSpeed:
          engine.set_capacity(n + rev.target, std::max(rev.value, 1e-12));
          break;
        case CapacityRevision::Kind::LinkBw:
          link_bw[rev.target] = rev.value;
          links_moved = true;
          break;
        case CapacityRevision::Kind::LinkMaxConnect:
          link_maxcon[rev.target] = rev.value;
          links_moved = true;
          break;
      }
    }
    if (links_moved) build_items();

    const PeriodStats period = engine.run_period(period_items);
    report.rate_recomputations += period.full_solves;
    report.partial_recomputations += period.partial_solves;
    report.events += period.events;
    if (p < options.warmup_periods) continue;
    // The schedule is clocked: a period that finishes early idles until
    // the T_p boundary; one that overruns delays the next period.
    measured_time += std::max(period.duration, period_length);
    max_duration = std::max(max_duration, period.duration);
    report.flows_completed +=
        static_cast<std::int64_t>(schedule.transfers.size());
    report.jobs_completed += static_cast<std::int64_t>(schedule.compute.size());
    for (const core::ComputeTask& ct : schedule.compute)
      measured_load[ct.app] += static_cast<double>(ct.units);
  }

  report.total_time = measured_time;
  report.mean_period_duration = measured_time / options.periods;
  report.max_period_duration = max_duration;
  report.worst_overrun_ratio = max_duration / period_length;
  if (measured_time > 0.0) {
    for (int k = 0; k < n; ++k) report.throughput[k] = measured_load[k] / measured_time;
  }
  return report;
}

}  // namespace dls::sim
