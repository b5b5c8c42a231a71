// Platform dynamics: timed events that make the platform a first-class
// time-varying object.
//
// The paper's steady-state model (§2) freezes bandwidths, max-connect
// budgets and topology for the whole run and defers dynamics to future
// work (§7). This subsystem supplies the missing axis: a vocabulary of
// platform events (capacity rescales, link and router failures, cluster
// churn), stochastic generators for them (Weibull/exponential
// failure-repair processes, mean-reverting bandwidth drift, exponential
// membership churn), and a trace-driven `.events` text format mirroring
// the online engine's `.workload`:
//
//   dls-events 1
//   event <time> <kind> <target> [<value>]
//
// with kind one of link-bw, link-maxconn, link-down, link-up,
// gateway-bw, cluster-leave, cluster-join, router-down, router-up.
// Values are written with 17 significant digits, so write/read round
// trips are bit-exact. Applying a trace to a platform is the job of
// DynamicPlatform (dynamic_platform.hpp).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "support/rng.hpp"

namespace dls::dynamics {

enum class EventKind : unsigned char {
  LinkBandwidth,    ///< re-prices a link's per-connection bw (value = new bw)
  LinkMaxConnect,   ///< rescales a link's max-connect (value = new budget)
  LinkDown,         ///< link fails; routed pairs detour or lose their route
  LinkUp,           ///< link repaired; severed pairs are re-offered routes
  GatewayBandwidth, ///< degrades/restores a cluster's gateway (value = new g_k)
  ClusterLeave,     ///< cluster churns out (isolated, compute disabled)
  ClusterJoin,      ///< cluster churns back in
  RouterDown,       ///< transit-router failure: every incident up link fails
  RouterUp,         ///< router repaired: the links *it* took down come back
};

/// Every kind, in declaration order.
inline constexpr EventKind kEventKinds[] = {
    EventKind::LinkBandwidth, EventKind::LinkMaxConnect, EventKind::LinkDown,
    EventKind::LinkUp,        EventKind::GatewayBandwidth, EventKind::ClusterLeave,
    EventKind::ClusterJoin,   EventKind::RouterDown,     EventKind::RouterUp};

/// The `.events` keyword of a kind ("link-bw", "cluster-leave", ...).
[[nodiscard]] const char* to_string(EventKind kind);

/// The kind whose keyword is `token`; false when there is none.
[[nodiscard]] bool from_string(const std::string& token, EventKind& kind);

/// True for kinds that carry a value operand.
[[nodiscard]] bool has_value(EventKind kind);

/// One platform event: `kind` applied to `target` (a link, cluster or
/// router id, per kind) at `time`, with `value` the new capacity for the
/// rescale kinds (ignored otherwise).
struct PlatformEvent {
  double time = 0.0;
  EventKind kind = EventKind::LinkBandwidth;
  int target = 0;
  double value = 0.0;
};

/// A time-sorted stream of platform events.
struct EventTrace {
  std::vector<PlatformEvent> events;  ///< sorted by non-decreasing time

  [[nodiscard]] int size() const { return static_cast<int>(events.size()); }
  [[nodiscard]] bool empty() const { return events.empty(); }

  /// Throws dls::Error unless times are finite, non-negative and
  /// non-decreasing, targets name existing links/clusters/routers of the
  /// platform, and rescale values are positive and finite (max-connect
  /// values additionally integral and >= 0).
  void validate(const platform::Platform& plat) const;

  /// Stable merge of two sorted traces (ties keep `a` before `b`).
  [[nodiscard]] static EventTrace merge(const EventTrace& a, const EventTrace& b);
};

// ---- stochastic generators --------------------------------------------------
//
// All generators are deterministic given (params, platform, rng state)
// and emit time-sorted traces over [0, horizon).

/// Alternating failure/repair processes for backbone links and (when
/// router_mtbf > 0) transit routers. Time-to-failure is Weibull with the
/// given shape (shape 1 = the classical exponential/Poisson failure
/// process; shape < 1 = infant-mortality-heavy, > 1 = wear-out);
/// repair times are exponential.
struct FailureRepairParams {
  double horizon = 1000.0;
  double link_mtbf = 2000.0;    ///< Weibull scale of link time-to-failure
  double weibull_shape = 1.0;   ///< Weibull shape (1 = exponential)
  double mean_repair = 100.0;   ///< exponential mean link repair time
  /// Weibull scale of router time-to-failure; 0 disables router events.
  /// Only routers named "transit*" (the generator's transit routers) or
  /// routers with no attached cluster are eligible: failing a cluster's
  /// home router is modelled as cluster churn instead.
  double router_mtbf = 0.0;
  double router_mean_repair = 100.0;
};

[[nodiscard]] EventTrace failure_repair_trace(const platform::Platform& plat,
                                              const FailureRepairParams& params,
                                              Rng& rng);

/// Mean-reverting multiplicative bandwidth drift: each link's bandwidth
/// is base_bw * exp(x_t) where x_t follows the discretized
/// Ornstein-Uhlenbeck recurrence
///   x' = x * exp(-step/revert_tau) + sigma * sqrt(1 - exp(-2 step/tau)) * N(0,1),
/// sampled every `step` time units — the classical model of backbone
/// capacity sagging under background cross-traffic and recovering.
/// Factors are clamped to [floor_factor, 1/floor_factor].
struct DriftParams {
  double horizon = 1000.0;
  double step = 25.0;          ///< sampling interval
  double sigma = 0.15;         ///< stationary stddev of log-bandwidth
  double revert_tau = 200.0;   ///< mean-reversion time constant
  double floor_factor = 0.05;  ///< clamp on the multiplicative factor
  /// Probability that a link's re-sampled bandwidth is emitted as an
  /// event at each step. The OU state always advances; thinning the
  /// emissions lets low event-rate scenarios spread drift over the
  /// horizon instead of dumping every link each step.
  double sample_fraction = 1.0;
  bool gateways = false;       ///< also drift cluster gateway bandwidths
};

[[nodiscard]] EventTrace drift_trace(const platform::Platform& plat,
                                     const DriftParams& params, Rng& rng);

/// Cluster membership churn: a `churn_fraction` subset of clusters
/// alternates exponential present (mean_up) / absent (mean_down)
/// periods, emitting cluster-leave / cluster-join pairs.
struct ChurnParams {
  double horizon = 1000.0;
  double mean_up = 600.0;
  double mean_down = 150.0;
  double churn_fraction = 0.25;  ///< fraction of clusters subject to churn
};

[[nodiscard]] EventTrace churn_trace(const platform::Platform& plat,
                                     const ChurnParams& params, Rng& rng);

// ---- scenario grid ----------------------------------------------------------

/// Table-1-style grid of churn scenarios for sweeps: event rate (mean
/// platform events per time unit, split across failures, drift and
/// churn) crossed with severity (how deep capacity cuts go and how long
/// outages last, 0 = imperceptible .. 1 = crippling).
struct ChurnScenarioGrid {
  std::vector<double> event_rate{0.005, 0.02, 0.08, 0.32};
  std::vector<double> severity{0.2, 0.4, 0.6, 0.8};
};

/// One cell of the grid, expanded into generator parameters for the
/// given horizon and platform size. Rate scales MTBFs and drift steps
/// inversely; severity scales drift sigma, repair/absence durations and
/// the churned-cluster fraction.
struct ScenarioParams {
  FailureRepairParams failures;
  DriftParams drift;
  ChurnParams churn;
};
[[nodiscard]] ScenarioParams scenario_params(double event_rate, double severity,
                                             double horizon,
                                             const platform::Platform& plat);

/// Full scenario trace for one grid cell: merged failure + drift + churn
/// streams. Deterministic given (cell, horizon, platform, rng state).
[[nodiscard]] EventTrace scenario_trace(double event_rate, double severity,
                                        double horizon,
                                        const platform::Platform& plat, Rng& rng);

// ---- serialization ----------------------------------------------------------

/// Writes the `.events` format (17 significant digits; bit-exact round
/// trips).
void write_events(const EventTrace& trace, std::ostream& os);

/// Reads a `.events` stream; throws dls::Error naming the line and the
/// defect (bad header, unknown kind, truncated line, negative or
/// out-of-order time, malformed number).
[[nodiscard]] EventTrace read_events(std::istream& is);

[[nodiscard]] std::string to_text(const EventTrace& trace);
[[nodiscard]] EventTrace from_text(const std::string& text);

}  // namespace dls::dynamics
