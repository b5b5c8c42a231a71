// The online event core and its replay driver.
//
// EventCore is the incremental lifecycle state machine every online
// engine shares: a private DynamicPlatform copy, one AppRecord per
// arrival, the active set with its fluid drain rates, completions at
// exact virtual times, churn aborts, the lifecycle counters and the one
// rescheduler (rescheduler.hpp) that prices the active set. Its two
// subclasses differ in admission and in the rescheduler's problem shape:
//   * MultiLoadCore (multi_core.hpp) — every active application is a
//     load in one shared LP; behind `dls online --loads` and, as
//     serve::ServeEngine, behind `dls serve`;
//   * the single-load core in engine.cpp — one application per cluster,
//     FIFO queues, the canonical LP (and optionally simulated rates);
//     behind `dls online`.
//
// Virtual time is the core's only clock. advance_to(vt) drains the
// active loads to vt and fires every completion due by then; mutations
// are stamped at the vt the caller supplies. State changes only at call
// boundaries and every call is deterministic in (vt, arguments).
//
// Settle rule: a mutation (admission, completion, abort, cancel,
// platform change) only marks the schedule dirty. The core reschedules
// once, lazily, before virtual time advances or a rate is read — or
// when a driver calls settle() explicitly.
//
// Tie order (ReplayCursor): each step takes the earliest pending time t
// — next arrival, next platform event or next projected completion —
// drains to t firing completions, applies every platform event stamped
// <= t, then every arrival stamped <= t, and settles once: one virtual
// time costs at most one reschedule however many changes tie on it.
// OnlineEngine::run loops steps to the end of the workload; the daemon
// paces steps by wall clock and settles after each client mutation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dynamics/dynamic_platform.hpp"
#include "online/metrics.hpp"
#include "online/rescheduler.hpp"
#include "online/workload.hpp"
#include "platform/platform.hpp"

namespace dls::online {

/// Remaining load at or below this counts as drained (absolute: loads
/// are O(100), so this absorbs accumulated drain rounding). An arrival
/// must bring more.
inline constexpr double kLoadEps = 1e-6;

/// Monotonic lifecycle counters (the daemon exports them 1:1).
struct CoreCounters {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_absent = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;      ///< client depart requests honored
  std::uint64_t aborted_churn = 0;  ///< active or queued when home cluster left
  std::uint64_t reschedules = 0;
  std::uint64_t warm_solves = 0;
  std::uint64_t cold_solves = 0;
  std::uint64_t repaired_solves = 0;
  std::uint64_t platform_events = 0;
  int peak_active = 0;
  double warm_seconds = 0.0;
  double cold_seconds = 0.0;
  double total_work = 0.0;  ///< load units drained (aborts drain partially)
  double makespan = 0.0;    ///< last completion time
};

class EventCore {
public:
  /// `sched` picks the rescheduler's problem shape: ReschedulerOptions
  /// for one application per cluster, MultiReschedulerOptions for the
  /// shared multi-load LP.
  template <class SchedOptions>
  EventCore(platform::Platform base, const SchedOptions& sched)
      : dyn_(std::move(base)), scheduler_(dyn_.plat(), sched) {
    refresh_total_speed();
  }
  virtual ~EventCore() = default;
  EventCore(const EventCore&) = delete;
  EventCore& operator=(const EventCore&) = delete;

  /// Drains forward to virtual time vt, firing every completion due by
  /// then. No-op when vt is not ahead of now().
  void advance_to(double vt);
  /// Earliest projected completion under the settled rates (settles
  /// first); +inf when nothing drains.
  [[nodiscard]] double next_completion();
  /// Reschedules once if anything changed since the last solve.
  void settle();
  /// Applies a platform event at vt: a leaving cluster aborts its
  /// loads, any capacity/topology change re-prices the schedule.
  dynamics::ChangeScope apply_event(double vt, const dynamics::PlatformEvent& ev);
  /// Admits, queues or rejects a recorded arrival at its time stamp.
  virtual void replay_arrival(const AppArrival& a) = 0;

  /// Current virtual time (the latest vt any call reached).
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] int active_count() const {
    return static_cast<int>(active_ids_.size());
  }
  /// Active application ids: admission order under MultiLoadCore,
  /// cluster order in single-load mode.
  [[nodiscard]] const std::vector<int>& active_ids() const {
    return active_ids_;
  }
  /// Current drain rate of application `id` (settles first; 0 when not
  /// active).
  [[nodiscard]] double load_rate(int id) {
    settle();
    return rate_[static_cast<std::size_t>(id)];
  }
  /// Work units application `id` still has to drain.
  [[nodiscard]] double load_remaining(int id) const {
    return remaining_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const CoreCounters& counters() const { return counters_; }
  [[nodiscard]] const OnlineMetrics& metrics() const { return metrics_; }
  /// One record per arrival, indexed by app id (= arrival index).
  [[nodiscard]] const std::vector<AppRecord>& apps() const { return apps_; }
  [[nodiscard]] const platform::Platform& plat() const { return dyn_.plat(); }

protected:
  /// Called after every settle with the solve whose rates rate_ now
  /// holds (a subclass may refine them), or null when no application is
  /// active (nothing to solve).
  virtual void on_settled(const MultiReschedule* /*r*/) {}
  /// The application that takes completed `app`'s place (FIFO
  /// hand-over), or -1.
  virtual int successor(int /*app*/) { return -1; }
  /// Cluster `c` left; its active applications are already aborted.
  virtual void cluster_left(int /*c*/) {}
  /// Observation hooks: `rec` left the active set (its outcome says
  /// why); a platform event was applied.
  virtual void on_departure(const AppRecord& /*rec*/) {}
  virtual void on_platform_event(const dynamics::PlatformEvent& /*ev*/,
                                 dynamics::ChangeScope /*scope*/) {}

  /// Appends the record of an arrival at vt and returns its id.
  int record_arrival(double vt, int cluster, double payoff, double load);
  /// Starts draining `app` at `at`, inserted into the active set at `pos`.
  void admit(int app, double at, std::vector<int>::const_iterator pos);
  /// Ends `app`'s lifecycle at now() with `outcome` (the caller removes
  /// it from the active set and marks the schedule dirty).
  void retire(int app, AppOutcome outcome);

  dynamics::DynamicPlatform dyn_;
  MultiLoadRescheduler scheduler_;  ///< watches dyn_'s platform
  double now_ = 0.0;
  bool dirty_ = false;  ///< active set or platform changed since the last solve
  std::vector<AppRecord> apps_;
  std::vector<double> remaining_;
  std::vector<double> rate_;
  std::vector<int> active_ids_;
  CoreCounters counters_;

private:
  /// Reschedules the active set and refreshes rate_.
  void solve();
  void drain_to(double vt);
  void complete_due();
  void refresh_total_speed();

  double total_speed_ = 0.0;
  OnlineMetrics metrics_;
  std::vector<double> weighted_rates_;  ///< scratch for the fairness metric
  std::vector<ActiveLoad> loads_;       ///< scratch for reschedule calls
};

/// The one replay driver: a cursor over a recorded (Workload,
/// EventTrace) pair feeding an EventCore in the tie order above.
class ReplayCursor {
public:
  /// The cursor keeps references: all three must outlive it.
  ReplayCursor(EventCore& core, const Workload& workload,
               const dynamics::EventTrace& trace)
      : core_(&core), workload_(&workload), trace_(&trace) {}

  /// Earliest pending virtual time (arrival, platform event or
  /// completion); +inf when nothing is pending.
  [[nodiscard]] double next_time();
  /// Applies everything due at next_time() and settles. False, changing
  /// nothing, when nothing is pending or it lies beyond `budget`.
  bool step(double budget);
  /// Steps until every arrival is fed and the core is idle. Throws
  /// dls::Error when active loads can never drain.
  void run_to_end();

  /// Recorded items (arrivals + platform events) not fed yet.
  [[nodiscard]] std::size_t pending() const {
    return workload_->arrivals.size() - next_arrival_ + trace_->events.size() -
           next_event_;
  }
  /// Drops every item not fed yet (a draining daemon stops its replay).
  void skip_rest() {
    next_arrival_ = workload_->arrivals.size();
    next_event_ = trace_->events.size();
  }

private:
  EventCore* core_;
  const Workload* workload_;
  const dynamics::EventTrace* trace_;
  std::size_t next_arrival_ = 0;
  std::size_t next_event_ = 0;
};

}  // namespace dls::online
