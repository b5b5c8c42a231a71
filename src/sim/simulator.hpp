// Flow-level discrete-event execution of a periodic schedule.
//
// The simulator plays the §3.2 pipeline on the platform model: in each
// period every transfer of the schedule becomes a network flow (rate
// limited by its connections' backbone allowance beta*pbw and by the
// max-min fair share of the two gateway links it crosses) and every
// compute chunk becomes a job sharing its cluster's CPU. Events are flow
// and job completions; rates are re-solved at each event (progressive
// filling, see fair_share.hpp) by the engine layer (engine.hpp), which
// applies component-limited delta re-solves driven by an event calendar
// instead of a from-scratch pass per event. The sharing policy decides
// each item's rate cap and share weight before the engine sees it.
//
// Backbone max-connect limits are enforced: when a schedule opens more
// connections across a link than the link admits, every connection on
// that link is degraded proportionally (bw * max_connections / opened),
// so oversubscribed schedules surface as period overruns instead of
// simulating as feasible.
//
// This replaces the authors' (unavailable) SimGrid tooling with an
// in-repo substrate of the same fluid bandwidth-sharing family; see
// DESIGN.md.
#pragma once

#include <cstdint>
#include <vector>

#include "core/problem.hpp"
#include "core/schedule.hpp"
#include "sim/engine.hpp"

namespace dls::sim {

/// How flows and jobs draw rate within a period.
enum class SharingPolicy {
  /// Every item is throttled to its reserved rate units/T_p — the fluid
  /// execution the paper's §3.2 feasibility argument implies. A valid
  /// schedule then always completes exactly at the period boundary.
  Paced,
  /// Work-conserving max-min fair sharing (TCP-like). Greedier early, but
  /// a flow capped by its connections (beta*pbw) cannot catch up after
  /// losing fair-share rounds, so valid schedules can overrun T_p by a
  /// measurable factor — an effect the analytical model hides and the
  /// bench_sim_validation experiment quantifies.
  MaxMin,
  /// Max-min sharing with TCP's RTT bias: each flow's share weight is
  /// 1 / max(2 * route latency, 1 ms), so long-haul flows lose
  /// gateway contention the way long-RTT TCP connections do. This is the
  /// paper's §7 "more realistic network model" direction. Identical to
  /// MaxMin on latency-free platforms.
  TcpRttBias,
  /// Max-min sharing with the classical W/RTT ceiling: each connection
  /// keeps at most SimOptions::window_units in flight, capping a flow at
  /// connections * window / max(rtt, 1 ms) on top of fair sharing.
  BoundedWindow,
};

/// One mid-run capacity change, honored at a period boundary: from
/// period `at_period` (0-based, counting warm-up periods first) onwards
/// the named capacity takes `value`. The schedule itself is not
/// re-planned — this shows what a fixed periodic schedule achieves when
/// the platform drifts under it (src/dynamics/ supplies the events; the
/// online engine re-plans, the simulator deliberately does not).
struct CapacityRevision {
  enum class Kind : unsigned char {
    GatewayBw,       ///< target = cluster id, value = new gateway capacity
    ClusterSpeed,    ///< target = cluster id, value = new cumulated speed
    LinkBw,          ///< target = link id, value = new per-connection bw
    LinkMaxConnect,  ///< target = link id, value = new max-connect budget
  };
  int at_period = 0;
  Kind kind = Kind::LinkBw;
  int target = 0;
  double value = 0.0;
};

struct SimOptions {
  int periods = 20;        ///< periods executed after warm-up
  int warmup_periods = 2;  ///< pipeline fill periods excluded from stats
  SharingPolicy policy = SharingPolicy::Paced;
  /// Capacity revisions applied at period boundaries, sorted by
  /// at_period (simulate_schedule validates the order).
  std::vector<CapacityRevision> revisions;
  /// Per-connection in-flight load under BoundedWindow.
  double window_units = 50.0;
};

struct SimReport {
  double total_time = 0.0;  ///< measured window duration (clocked periods:
                            ///< max(T_p, actual duration) per period)
  std::vector<double> throughput;      ///< per application: load / time
  double mean_period_duration = 0.0;
  double max_period_duration = 0.0;
  /// max period duration / T_p: <= 1 means the schedule held its period.
  double worst_overrun_ratio = 0.0;
  std::int64_t flows_completed = 0;
  std::int64_t jobs_completed = 0;
  /// Full progressive-filling passes over every live item: period-start
  /// solves plus dirty sets that spanned the whole live set.
  std::int64_t rate_recomputations = 0;
  /// Component-limited re-solves done instead of full passes.
  std::int64_t partial_recomputations = 0;
  std::int64_t events = 0;  ///< item completions across all periods
};

/// Executes the schedule for warmup + measured periods and reports
/// achieved steady-state throughput per application. The schedule should
/// be valid for the problem's platform (see validate_schedule); an
/// infeasible schedule still runs but shows overrun ratios above 1.
[[nodiscard]] SimReport simulate_schedule(const core::SteadyStateProblem& problem,
                                          const core::PeriodicSchedule& schedule,
                                          const SimOptions& options = {});

}  // namespace dls::sim
