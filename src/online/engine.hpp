// The online workload engine: replays a workload (workload.hpp) — and
// optionally a platform-event trace (src/dynamics/) — to completion and
// reports per-application records and online metrics.
//
// It is the batch driver of the shared event core (event_core.hpp): one
// ReplayCursor stepped to the end of the workload, then folded into an
// OnlineReport. The settle rule and the tie order are stated there once;
// the `dls serve` daemon drives the same core and cursor live.
//
// Two modes pick the core:
//   * single-load (default) — each cluster hosts at most one active
//     application, later arrivals for a busy cluster wait in its FIFO
//     queue, and rates come from the rescheduler (rescheduler.hpp) in
//     single-load mode, over the canonical problem. An arrival that only
//     joins a queue triggers no reschedule. Fluid trusts the allocation (rate = total_alpha of the
//     home cluster); Simulated plays a reconstructed periodic-schedule
//     segment on the flow simulator and drains at the *achieved*
//     throughputs, so bandwidth-sharing overruns stretch response times;
//   * multi-load — every arrival is admitted at once as a load in ONE
//     shared LP (MultiLoadCore, multi_core.hpp).
//
// The engine rescans the <= K active applications for the earliest
// projected drain: a reschedule changes every rate at once, so a heap of
// finish times would be fully stale after each event. Progress: while
// any application is active, the solved allocation gives at least one
// of them a positive rate (granting an application its idle local speed
// always improves both objectives), so every replay terminates; an
// individual application can still starve for a while under
// Objective::Sum.
//
// Platform events mutate a private DynamicPlatform copy; capacity events
// keep the warm capsule for a whole or repaired warm start, topology
// events force a cold solve. A leaving cluster aborts its active and
// queued applications and rejects arrivals until it rejoins. An empty
// trace reproduces run(workload) bit for bit.
#pragma once

#include <vector>

#include "dynamics/events.hpp"
#include "online/metrics.hpp"
#include "online/rescheduler.hpp"
#include "online/workload.hpp"
#include "sim/simulator.hpp"

namespace dls::online {

enum class RateModel {
  Fluid,      ///< allocation rates verbatim
  Simulated,  ///< achieved throughput of a simulated schedule segment
};

struct OnlineOptions {
  ReschedulerOptions sched;
  RateModel rate_model = RateModel::Fluid;
  /// Sharing policy and per-connection window (used by
  /// SharingPolicy::BoundedWindow) for RateModel::Simulated, which runs
  /// two measured periods per reschedule.
  sim::SharingPolicy sim_policy = sim::SharingPolicy::MaxMin;
  double sim_window_units = 50.0;
  /// Multi-load mode: every arrival is admitted immediately as a load
  /// in ONE shared LP (the rescheduler's multi-load mode) — clusters
  /// host any number of concurrent applications and no FIFO queues form
  /// (queued_arrivals/peak_queued stay 0). Arrival payoffs become the
  /// loads' objective weights and must be positive. Requires
  /// RateModel::Fluid; `sched` is ignored in favour of `multi`.
  bool multi_load = false;
  MultiReschedulerOptions multi;
};

struct OnlineReport {
  int arrivals = 0;
  int completed = 0;
  int aborted = 0;           ///< killed by their home cluster churning out
  int rejected = 0;          ///< arrived while their home cluster was out
  int reschedules = 0;       ///< solver invocations (support changed)
  int queued_arrivals = 0;   ///< arrivals that had to wait in a queue
  int platform_events = 0;   ///< dynamics events applied during the replay
  int warm_solves = 0;
  int cold_solves = 0;
  /// Warm solves that went through the basis-repair path (capacity
  /// events re-priced the model under the capsule); subset of warm.
  int repaired_solves = 0;
  double warm_seconds = 0.0;
  double cold_seconds = 0.0;
  double makespan = 0.0;     ///< last departure (completion) time
  double total_work = 0.0;   ///< load units drained (aborts drain partially)
  int peak_active = 0;
  int peak_queued = 0;       ///< largest single-cluster queue length
  OnlineMetrics metrics;
  /// One record per application, in arrival order; check outcome —
  /// dynamics replays may abort or reject applications.
  std::vector<AppRecord> apps;
};

class OnlineEngine {
public:
  OnlineEngine(const platform::Platform& plat, OnlineOptions options);

  /// Replays the workload to completion. Deterministic: the report is a
  /// pure function of (platform, workload, options). Throws dls::Error
  /// on invalid workloads or solver failure.
  [[nodiscard]] OnlineReport run(const Workload& workload) const;

  /// Replays the workload against a stream of platform events (see the
  /// header comment). Deterministic in (platform, workload, trace,
  /// options); an empty trace reproduces run(workload) bit for bit.
  [[nodiscard]] OnlineReport run(const Workload& workload,
                                 const dynamics::EventTrace& trace) const;

private:
  const platform::Platform* plat_;
  OnlineOptions options_;
};

}  // namespace dls::online
