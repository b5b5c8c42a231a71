#include "core/schedule.hpp"

#include <cmath>
#include <string>

#include "support/rationalize.hpp"

namespace dls::core {

double PeriodicSchedule::throughput(int app) const {
  return static_cast<double>(load_per_period(app)) / static_cast<double>(period);
}

std::int64_t PeriodicSchedule::load_per_period(int app) const {
  std::int64_t total = 0;
  for (const ComputeTask& t : compute)
    if (t.app == app) total += t.units;
  return total;
}

PeriodicSchedule build_periodic_schedule(const SteadyStateProblem& problem,
                                         const Allocation& alloc,
                                         const ScheduleOptions& options) {
  require(options.max_denominator >= 1 && options.max_period >= 1,
          "build_periodic_schedule: invalid options");
  // Fractional (relaxed) betas reconstruct fine: the schedule's integer
  // connection counts come from the rationalized rates below.
  const ValidationReport report = validate_allocation(
      problem, alloc, 1e-6, /*require_integer_betas=*/false);
  if (!report.ok)
    throw Error("build_periodic_schedule: allocation is not valid: " +
                (report.violations.empty() ? std::string("?")
                                           : report.violations.front()));

  const int n = problem.num_clusters();

  // Rationalize every nonzero rate downwards.
  struct RouteRate {
    int k, l;
    Rational rate;
  };
  std::vector<RouteRate> rates;
  bool overflow = false;
  std::int64_t period = 1;
  for (int k = 0; k < n; ++k) {
    for (int l = 0; l < n; ++l) {
      const double a = alloc.alpha(k, l);
      if (a <= 0.0) continue;
      Rational r = rationalize_floor(a, options.max_denominator);
      if (r.num() < 0) r = Rational(0);
      if (r.is_zero()) continue;
      rates.push_back({k, l, r});
      if (!overflow) {
        try {
          period = lcm64(period, r.den());
          if (period > options.max_period) overflow = true;
        } catch (const Error&) {
          overflow = true;
        }
      }
    }
  }
  if (overflow) {
    // Common-denominator fallback: floor every rate onto the grid
    // 1/max_denominator; period is then exactly max_denominator. The
    // floor must be strict — nudging the product upward before flooring
    // (the old `+ 1e-9`) rounds a rate sitting within epsilon below an
    // integer *up*, violating the round-down capacity invariant
    // (DESIGN.md section 4).
    period = options.max_denominator;
    for (RouteRate& rr : rates) {
      const double a = alloc.alpha(rr.k, rr.l);
      const auto num = static_cast<std::int64_t>(
          std::floor(a * static_cast<double>(period)));
      rr.rate = Rational(num, period);
    }
  }

  PeriodicSchedule sched;
  sched.period = period;
  const platform::Platform& plat = problem.plat();
  for (const RouteRate& rr : rates) {
    std::int64_t units = rr.rate.num() * (period / rr.rate.den());
    if (units <= 0) continue;
    int connections = 0;
    if (rr.k != rr.l) {
      // Connection count for (7e): the smallest number of connections
      // whose per-connection bandwidth sustains the *scheduled* (i.e.
      // rationalized) rate, never exceeding the allocation's beta
      // rounded down. Rounding the relaxed beta to nearest — the old
      // llround — could round a fractional beta up past the link's
      // max-connect budget (7d) even when the scheduled rate never
      // needed the extra connection; and since sum(floor(beta)) <=
      // sum(beta) <= max-connect, the floor cap keeps every link budget
      // intact. A rate the capped connections cannot carry is rounded
      // down with them (the LPR treatment of fractional betas: round
      // down, clip the rate to the rounded bandwidth).
      // Link-free remote routes (clusters sharing a router) keep
      // connections = 0: beta is 0 there by (7g) validation, exactly
      // what the previous llround(beta) emitted.
      const double pbw = plat.route_bottleneck_bw(rr.k, rr.l);
      if (std::isfinite(pbw) && pbw > 0.0) {
        const double needed =
            static_cast<double>(units) / (static_cast<double>(period) * pbw);
        // At least 1 (any positive rate ships over a connection); the
        // comparison with `granted` stays in double so an absurd
        // `needed` cannot overflow the int cast.
        const double needed_conn = std::max(1.0, std::ceil(needed - 1e-9));
        const int granted = static_cast<int>(
            std::floor(alloc.beta(rr.k, rr.l) + 1e-9));
        connections = static_cast<double>(granted) < needed_conn
                          ? granted
                          : static_cast<int>(needed_conn);
        if (connections <= 0) continue;  // no whole connection: drop route
        units = std::min(units,
                         static_cast<std::int64_t>(std::floor(
                             connections * pbw * static_cast<double>(period))));
        if (units <= 0) continue;
      }
    }
    sched.compute.push_back({rr.k, rr.l, units});
    if (rr.k != rr.l) sched.transfers.push_back({rr.k, rr.l, units, connections});
  }
  return sched;
}

ValidationReport validate_schedule(const SteadyStateProblem& problem,
                                   const PeriodicSchedule& schedule) {
  ValidationReport report;
  auto fail = [&report](std::string msg) {
    report.ok = false;
    report.violations.push_back(std::move(msg));
  };
  const platform::Platform& plat = problem.plat();
  const int n = plat.num_clusters();
  const auto period = static_cast<double>(schedule.period);
  constexpr double kEps = 1e-6;

  if (schedule.period < 1) {
    fail("period must be >= 1");
    return report;
  }

  // (7b): per-period compute load.
  std::vector<double> load(n, 0.0);
  for (const ComputeTask& t : schedule.compute) {
    if (t.app < 0 || t.app >= n || t.on_cluster < 0 || t.on_cluster >= n) {
      fail("compute task with out-of-range cluster");
      continue;
    }
    if (t.units < 0) fail("negative compute units");
    load[t.on_cluster] += static_cast<double>(t.units);
  }
  for (int l = 0; l < n; ++l)
    if (load[l] > plat.cluster(l).speed * period * (1 + kEps))
      fail("(7b) period compute exceeds speed on cluster " + std::to_string(l));

  // (7c)/(7d)/(7e): transfers.
  std::vector<double> gateway(n, 0.0);
  std::vector<double> connections(plat.num_links(), 0.0);
  for (const Transfer& t : schedule.transfers) {
    if (t.from < 0 || t.from >= n || t.to < 0 || t.to >= n || t.from == t.to) {
      fail("transfer with bad endpoints");
      continue;
    }
    if (!plat.has_route(t.from, t.to)) {
      fail("transfer on missing route");
      continue;
    }
    gateway[t.from] += static_cast<double>(t.units);
    gateway[t.to] += static_cast<double>(t.units);
    const auto route = plat.route(t.from, t.to);
    for (platform::LinkId li : route) connections[li] += t.connections;
    if (!route.empty()) {
      const double cap = t.connections * plat.route_bottleneck_bw(t.from, t.to);
      if (static_cast<double>(t.units) > cap * period * (1 + kEps))
        fail("(7e) transfer exceeds its connections' bandwidth");
    }
  }
  for (int k = 0; k < n; ++k)
    if (gateway[k] > plat.cluster(k).gateway_bw * period * (1 + kEps))
      fail("(7c) period gateway traffic exceeded on cluster " + std::to_string(k));
  for (platform::LinkId li = 0; li < plat.num_links(); ++li)
    if (connections[li] > plat.link(li).max_connections + kEps)
      fail("(7d) connections exceeded on link " + std::to_string(li));

  return report;
}

}  // namespace dls::core
