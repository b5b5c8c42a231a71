#include "dynamics/events.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numbers>
#include <ostream>
#include <sstream>

namespace dls::dynamics {

namespace {

/// Exponential draw of the given mean via inversion (uniform01() is in
/// [0, 1), so the log argument stays positive).
double exponential(Rng& rng, double mean) {
  return -mean * std::log1p(-rng.uniform01());
}

/// Weibull draw: scale * (-ln(1-U))^(1/shape); shape 1 is exponential.
double weibull(Rng& rng, double scale, double shape) {
  return scale * std::pow(-std::log1p(-rng.uniform01()), 1.0 / shape);
}

/// Standard normal via Box-Muller. Two uniforms per draw, no caching:
/// the stream layout stays obvious for reproducibility.
double normal01(Rng& rng) {
  const double u1 = rng.uniform01();
  const double u2 = rng.uniform01();
  return std::sqrt(-2.0 * std::log1p(-u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

/// Generation order is per-entity; a stable sort by time merges the
/// streams while keeping ties in entity order.
void sort_by_time(EventTrace& trace) {
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const PlatformEvent& a, const PlatformEvent& b) {
                     return a.time < b.time;
                   });
}

/// Alternating failure/repair stream for one entity over [0, horizon).
template <typename Fail, typename Repair>
void emit_failure_repair(EventTrace& out, double horizon, EventKind down,
                         EventKind up, int target, Fail&& next_failure,
                         Repair&& next_repair) {
  double t = next_failure();
  while (t < horizon) {
    out.events.push_back({t, down, target, 0.0});
    t += next_repair();
    if (t >= horizon) return;  // never repaired inside the horizon
    out.events.push_back({t, up, target, 0.0});
    t += next_failure();
  }
}

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::LinkBandwidth: return "link-bw";
    case EventKind::LinkMaxConnect: return "link-maxconn";
    case EventKind::LinkDown: return "link-down";
    case EventKind::LinkUp: return "link-up";
    case EventKind::GatewayBandwidth: return "gateway-bw";
    case EventKind::ClusterLeave: return "cluster-leave";
    case EventKind::ClusterJoin: return "cluster-join";
    case EventKind::RouterDown: return "router-down";
    case EventKind::RouterUp: return "router-up";
  }
  return "?";
}

bool from_string(const std::string& token, EventKind& kind) {
  for (const EventKind candidate : kEventKinds) {
    if (token == to_string(candidate)) {
      kind = candidate;
      return true;
    }
  }
  return false;
}

bool has_value(EventKind kind) {
  return kind == EventKind::LinkBandwidth || kind == EventKind::LinkMaxConnect ||
         kind == EventKind::GatewayBandwidth;
}

void EventTrace::validate(const platform::Platform& plat) const {
  double prev = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const PlatformEvent& e = events[i];
    // The event index joins the message only when a check fails.
    const auto check = [i](bool ok, const char* what) {
      if (!ok) throw Error(std::string(what) + " at event " + std::to_string(i));
    };
    check(std::isfinite(e.time) && e.time >= 0.0,
          "event trace: bad event time");
    check(e.time >= prev, "event trace: times must be non-decreasing");
    prev = e.time;
    switch (e.kind) {
      case EventKind::LinkBandwidth:
        check(e.target >= 0 && e.target < plat.num_links(),
              "event trace: link id out of range");
        check(std::isfinite(e.value) && e.value > 0.0,
              "event trace: bandwidth must be positive");
        break;
      case EventKind::LinkMaxConnect:
        check(e.target >= 0 && e.target < plat.num_links(),
              "event trace: link id out of range");
        check(std::isfinite(e.value) && e.value >= 0.0 &&
                  e.value == std::floor(e.value),
              "event trace: max-connect must be a non-negative integer");
        break;
      case EventKind::LinkDown:
      case EventKind::LinkUp:
        check(e.target >= 0 && e.target < plat.num_links(),
              "event trace: link id out of range");
        break;
      case EventKind::GatewayBandwidth:
        check(e.target >= 0 && e.target < plat.num_clusters(),
              "event trace: cluster id out of range");
        check(std::isfinite(e.value) && e.value > 0.0,
              "event trace: bandwidth must be positive");
        break;
      case EventKind::ClusterLeave:
      case EventKind::ClusterJoin:
        check(e.target >= 0 && e.target < plat.num_clusters(),
              "event trace: cluster id out of range");
        break;
      case EventKind::RouterDown:
      case EventKind::RouterUp:
        check(e.target >= 0 && e.target < plat.num_routers(),
              "event trace: router id out of range");
        break;
    }
  }
}

EventTrace EventTrace::merge(const EventTrace& a, const EventTrace& b) {
  EventTrace out;
  out.events.resize(a.events.size() + b.events.size());
  std::merge(a.events.begin(), a.events.end(), b.events.begin(), b.events.end(),
             out.events.begin(),
             [](const PlatformEvent& x, const PlatformEvent& y) {
               return x.time < y.time;
             });
  return out;
}

EventTrace failure_repair_trace(const platform::Platform& plat,
                                const FailureRepairParams& p, Rng& rng) {
  require(p.horizon > 0.0 && std::isfinite(p.horizon),
          "failure_repair_trace: horizon must be positive");
  require(p.link_mtbf > 0.0 && p.mean_repair > 0.0,
          "failure_repair_trace: MTBF and repair means must be positive");
  require(p.weibull_shape > 0.0, "failure_repair_trace: shape must be positive");
  require(p.router_mtbf >= 0.0 && p.router_mean_repair > 0.0,
          "failure_repair_trace: router means must be positive");

  EventTrace out;
  for (platform::LinkId i = 0; i < plat.num_links(); ++i) {
    emit_failure_repair(
        out, p.horizon, EventKind::LinkDown, EventKind::LinkUp, i,
        [&] { return weibull(rng, p.link_mtbf, p.weibull_shape); },
        [&] { return exponential(rng, p.mean_repair); });
  }
  if (p.router_mtbf > 0.0) {
    // Only transit routers fail as routers: losing a cluster's home
    // router is cluster churn, not a backbone event.
    std::vector<char> hosts(plat.num_routers(), 0);
    for (int k = 0; k < plat.num_clusters(); ++k) hosts[plat.cluster(k).router] = 1;
    for (platform::RouterId r = 0; r < plat.num_routers(); ++r) {
      if (hosts[r]) continue;
      emit_failure_repair(
          out, p.horizon, EventKind::RouterDown, EventKind::RouterUp, r,
          [&] { return weibull(rng, p.router_mtbf, p.weibull_shape); },
          [&] { return exponential(rng, p.router_mean_repair); });
    }
  }
  sort_by_time(out);
  return out;
}

EventTrace drift_trace(const platform::Platform& plat, const DriftParams& p,
                       Rng& rng) {
  require(p.horizon > 0.0 && p.step > 0.0 && std::isfinite(p.horizon),
          "drift_trace: horizon and step must be positive");
  require(p.sigma >= 0.0 && p.revert_tau > 0.0,
          "drift_trace: sigma must be >= 0 and revert_tau positive");
  require(p.floor_factor > 0.0 && p.floor_factor <= 1.0,
          "drift_trace: floor_factor out of (0, 1]");
  require(p.sample_fraction >= 0.0 && p.sample_fraction <= 1.0,
          "drift_trace: sample_fraction out of [0, 1]");

  const double decay = std::exp(-p.step / p.revert_tau);
  const double shock = p.sigma * std::sqrt(1.0 - decay * decay);
  const auto clamp_factor = [&](double f) {
    return std::clamp(f, p.floor_factor, 1.0 / p.floor_factor);
  };

  EventTrace out;
  std::vector<double> link_x(plat.num_links(), 0.0);
  std::vector<double> gw_x(p.gateways ? plat.num_clusters() : 0, 0.0);
  // Time-major generation: the trace comes out already sorted.
  for (double t = p.step; t < p.horizon; t += p.step) {
    for (platform::LinkId i = 0; i < plat.num_links(); ++i) {
      link_x[i] = link_x[i] * decay + shock * normal01(rng);
      if (p.sample_fraction < 1.0 && !rng.bernoulli(p.sample_fraction)) continue;
      out.events.push_back({t, EventKind::LinkBandwidth, i,
                            plat.link(i).bw * clamp_factor(std::exp(link_x[i]))});
    }
    for (int k = 0; k < static_cast<int>(gw_x.size()); ++k) {
      gw_x[k] = gw_x[k] * decay + shock * normal01(rng);
      if (p.sample_fraction < 1.0 && !rng.bernoulli(p.sample_fraction)) continue;
      out.events.push_back(
          {t, EventKind::GatewayBandwidth, k,
           plat.cluster(k).gateway_bw * clamp_factor(std::exp(gw_x[k]))});
    }
  }
  return out;
}

EventTrace churn_trace(const platform::Platform& plat, const ChurnParams& p,
                       Rng& rng) {
  require(p.horizon > 0.0 && std::isfinite(p.horizon),
          "churn_trace: horizon must be positive");
  require(p.mean_up > 0.0 && p.mean_down > 0.0,
          "churn_trace: membership means must be positive");
  require(p.churn_fraction >= 0.0 && p.churn_fraction <= 1.0,
          "churn_trace: churn fraction out of [0, 1]");

  EventTrace out;
  for (int k = 0; k < plat.num_clusters(); ++k) {
    if (!rng.bernoulli(p.churn_fraction)) continue;
    emit_failure_repair(
        out, p.horizon, EventKind::ClusterLeave, EventKind::ClusterJoin, k,
        [&] { return exponential(rng, p.mean_up); },
        [&] { return exponential(rng, p.mean_down); });
  }
  sort_by_time(out);
  return out;
}

ScenarioParams scenario_params(double event_rate, double severity,
                               double horizon, const platform::Platform& plat) {
  require(event_rate > 0.0 && std::isfinite(event_rate),
          "scenario_params: event rate must be positive");
  require(severity >= 0.0 && severity <= 1.0,
          "scenario_params: severity out of [0, 1]");
  require(horizon > 0.0 && std::isfinite(horizon),
          "scenario_params: horizon must be positive");
  const double links = std::max(1, plat.num_links());

  // Budget split: ~60% of events are drift samples, ~30% link
  // failure/repair pairs, ~10% churn pairs. Severity deepens the cuts
  // (drift sigma), lengthens outages relative to the horizon, and
  // widens the churned-cluster fraction.
  ScenarioParams out;
  out.drift.horizon = horizon;
  // A fixed cadence with thinned per-link emission: expected drift
  // events per time unit = links * sample_fraction / step = 0.6 * rate,
  // spread over the horizon even at low rates.
  out.drift.step = std::max(1.0, horizon / 32.0);
  out.drift.sample_fraction =
      std::min(1.0, 0.6 * event_rate * out.drift.step / links);
  out.drift.sigma = 0.05 + 0.45 * severity;
  out.drift.revert_tau = std::max(4.0 * out.drift.step, horizon / 8.0);

  out.failures.horizon = horizon;
  // Each failure contributes a down/up pair: rate * 0.3 events per time
  // unit across `links` links means a per-link MTBF of 2 links / that.
  out.failures.link_mtbf = 2.0 * links / (0.3 * event_rate);
  out.failures.mean_repair =
      std::min(0.8 * out.failures.link_mtbf, (0.02 + 0.18 * severity) * horizon);
  out.failures.weibull_shape = 1.0;

  out.churn.horizon = horizon;
  out.churn.churn_fraction = 0.1 + 0.4 * severity;
  out.churn.mean_up = std::max(horizon / 4.0,
                               2.0 * plat.num_clusters() / (0.1 * event_rate));
  out.churn.mean_down = (0.05 + 0.2 * severity) * horizon;
  return out;
}

EventTrace scenario_trace(double event_rate, double severity, double horizon,
                          const platform::Platform& plat, Rng& rng) {
  const ScenarioParams p = scenario_params(event_rate, severity, horizon, plat);
  EventTrace trace = failure_repair_trace(plat, p.failures, rng);
  trace = EventTrace::merge(trace, drift_trace(plat, p.drift, rng));
  return EventTrace::merge(trace, churn_trace(plat, p.churn, rng));
}

// ---- serialization ----------------------------------------------------------

void write_events(const EventTrace& trace, std::ostream& os) {
  os.precision(17);
  os << "dls-events 1\n";
  for (const PlatformEvent& e : trace.events) {
    os << "event " << e.time << ' ' << to_string(e.kind) << ' ' << e.target;
    if (has_value(e.kind)) os << ' ' << e.value;
    os << '\n';
  }
}

namespace {

double parse_double(std::istringstream& iss, const char* what, int line) {
  double v = 0.0;
  if (!(iss >> v)) {
    throw Error("read_events: line " + std::to_string(line) +
                ": truncated or malformed line (expected " + what + ")");
  }
  return v;
}

}  // namespace

EventTrace read_events(std::istream& is) {
  std::string line;
  int line_no = 0;
  // Header: the first non-blank line must be "dls-events 1".
  std::string header;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    header = line;
    break;
  }
  {
    std::istringstream iss(header);
    std::string magic;
    int version = 0;
    iss >> magic >> version;
    require(static_cast<bool>(iss) && magic == "dls-events" && version == 1,
            "read_events: bad header (expected 'dls-events 1')");
  }

  EventTrace trace;
  double prev = 0.0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::istringstream iss(line);
    std::string keyword;
    iss >> keyword;
    if (keyword != "event") {
      throw Error("read_events: line " + std::to_string(line_no) +
                  ": unknown keyword '" + keyword + "'");
    }
    PlatformEvent e;
    e.time = parse_double(iss, "a time", line_no);
    if (!std::isfinite(e.time) || e.time < 0.0) {
      throw Error("read_events: line " + std::to_string(line_no) +
                  ": event time must be finite and non-negative");
    }
    if (e.time < prev) {
      throw Error("read_events: line " + std::to_string(line_no) +
                  ": out-of-order event time (trace must be sorted)");
    }
    prev = e.time;
    std::string kind_token;
    if (!(iss >> kind_token)) {
      throw Error("read_events: line " + std::to_string(line_no) +
                  ": truncated or malformed line (expected an event kind)");
    }
    if (!from_string(kind_token, e.kind)) {
      throw Error("read_events: line " + std::to_string(line_no) +
                  ": unknown event kind '" + kind_token + "'");
    }
    const double target = parse_double(iss, "a target id", line_no);
    if (target != std::floor(target) || target < 0.0 || target > 1e9) {
      throw Error("read_events: line " + std::to_string(line_no) +
                  ": target must be a non-negative integer id");
    }
    e.target = static_cast<int>(target);
    if (has_value(e.kind)) e.value = parse_double(iss, "a value", line_no);
    std::string extra;
    if (iss >> extra) {
      throw Error("read_events: line " + std::to_string(line_no) +
                  ": unexpected trailing token '" + extra + "'");
    }
    trace.events.push_back(e);
  }
  return trace;
}

std::string to_text(const EventTrace& trace) {
  std::ostringstream oss;
  write_events(trace, oss);
  return oss.str();
}

EventTrace from_text(const std::string& text) {
  std::istringstream iss(text);
  return read_events(iss);
}

}  // namespace dls::dynamics
