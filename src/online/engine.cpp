#include "online/engine.hpp"

#include <algorithm>
#include <deque>

#include "core/schedule.hpp"
#include "online/multi_core.hpp"

namespace dls::online {

namespace {

/// Measured periods of the schedule segment RateModel::Simulated runs
/// per reschedule (after one warm-up period).
constexpr int kSimPeriods = 2;

// Single-load mode: a cluster runs at most one application, later
// arrivals for a busy cluster wait in its FIFO queue, and rates come
// from the rescheduler over the canonical LP — verbatim (Fluid) or as
// the achieved throughputs of a simulated schedule segment (Simulated).
// The active set is kept in cluster order.
class SingleLoadCore final : public EventCore {
public:
  SingleLoadCore(const platform::Platform& plat, const OnlineOptions& options)
      : EventCore(plat, options.sched),
        options_(&options),
        queue_(static_cast<std::size_t>(plat.num_clusters())) {
    sim_options_.policy = options.sim_policy;
    sim_options_.periods = kSimPeriods;
    sim_options_.window_units = options.sim_window_units;
    sim_options_.warmup_periods = 1;
  }

  void replay_arrival(const AppArrival& a) override {
    const int app = record_arrival(a.time, a.cluster, a.payoff, a.load);
    if (!dyn_.cluster_present(a.cluster)) {
      apps_[app].outcome = AppOutcome::RejectedChurn;
      ++counters_.rejected_absent;
      return;
    }
    const auto pos = std::lower_bound(
        active_ids_.cbegin(), active_ids_.cend(), a.cluster,
        [&](int id, int cluster) { return apps_[id].cluster < cluster; });
    if (pos == active_ids_.cend() || apps_[*pos].cluster != a.cluster) {
      admit(app, now_, pos);
      return;
    }
    std::deque<int>& q = queue_[a.cluster];
    q.push_back(app);
    ++queued_arrivals;
    peak_queued = std::max(peak_queued, static_cast<int>(q.size()));
  }

  int queued_arrivals = 0;  ///< arrivals that had to wait in a queue
  int peak_queued = 0;      ///< largest single-cluster queue length

private:
  void on_settled(const MultiReschedule* r) override {
    if (r == nullptr || options_->rate_model == RateModel::Fluid) return;
    // Simulated: drain at the achieved throughputs of the periodic
    // schedule the rescheduler's problem and allocation describe.
    const core::SteadyStateProblem& problem = scheduler_.problem();
    const auto schedule =
        core::build_periodic_schedule(problem, scheduler_.allocation());
    const auto sim = sim::simulate_schedule(problem, schedule, sim_options_);
    for (int app : active_ids_) rate_[app] = sim.throughput[apps_[app].cluster];
  }

  int successor(int app) override {
    std::deque<int>& q = queue_[apps_[app].cluster];
    if (q.empty()) return -1;
    const int heir = q.front();
    q.pop_front();
    return heir;
  }

  void cluster_left(int c) override {
    for (int app : queue_[c]) retire(app, AppOutcome::AbortedChurn);
    queue_[c].clear();
  }

  const OnlineOptions* options_;
  std::vector<std::deque<int>> queue_;  ///< waiting app ids per cluster
  sim::SimOptions sim_options_;
};

OnlineReport report_of(const EventCore& core, int arrivals) {
  const CoreCounters& c = core.counters();
  OnlineReport report;
  report.arrivals = arrivals;
  report.completed = static_cast<int>(c.completed);
  report.aborted = static_cast<int>(c.aborted_churn);
  report.rejected = static_cast<int>(c.rejected_absent);
  report.reschedules = static_cast<int>(c.reschedules);
  report.platform_events = static_cast<int>(c.platform_events);
  report.warm_solves = static_cast<int>(c.warm_solves);
  report.cold_solves = static_cast<int>(c.cold_solves);
  report.repaired_solves = static_cast<int>(c.repaired_solves);
  report.warm_seconds = c.warm_seconds;
  report.cold_seconds = c.cold_seconds;
  report.makespan = c.makespan;
  report.total_work = c.total_work;
  report.peak_active = c.peak_active;
  report.metrics = core.metrics();
  report.apps = core.apps();
  return report;
}

}  // namespace

OnlineEngine::OnlineEngine(const platform::Platform& plat, OnlineOptions options)
    : plat_(&plat), options_(options) {
  require(plat.num_clusters() >= 1, "OnlineEngine: platform has no clusters");
}

OnlineReport OnlineEngine::run(const Workload& workload) const {
  return run(workload, dynamics::EventTrace{});
}

OnlineReport OnlineEngine::run(const Workload& workload,
                               const dynamics::EventTrace& trace) const {
  require(!options_.multi_load || options_.rate_model == RateModel::Fluid,
          "OnlineEngine: multi-load mode requires RateModel::Fluid (the "
          "periodic-schedule reconstruction is single-load)");
  workload.validate(plat_->num_clusters());
  trace.validate(*plat_);
  for (const AppArrival& a : workload.arrivals) {
    require(a.load > kLoadEps,
            "OnlineEngine: application loads must exceed 1e-6");
    require(!options_.multi_load || a.payoff > 0.0,
            "OnlineEngine: multi-load mode uses payoffs as objective "
            "weights; they must be positive");
  }

  if (options_.multi_load) {
    CoreOptions core_options;
    core_options.sched = options_.multi;
    MultiLoadCore core(*plat_, core_options);
    ReplayCursor(core, workload, trace).run_to_end();
    return report_of(core, workload.size());
  }
  SingleLoadCore core(*plat_, options_);
  ReplayCursor(core, workload, trace).run_to_end();
  OnlineReport report = report_of(core, workload.size());
  report.queued_arrivals = core.queued_arrivals;
  report.peak_queued = core.peak_queued;
  return report;
}

}  // namespace dls::online
