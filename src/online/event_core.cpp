#include "online/event_core.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace dls::online {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

void EventCore::refresh_total_speed() {
  total_speed_ = 0.0;
  for (int k = 0; k < dyn_.plat().num_clusters(); ++k)
    total_speed_ += dyn_.plat().cluster(k).speed;
}

void EventCore::settle() {
  if (!dirty_) return;
  dirty_ = false;
  solve();
}

void EventCore::solve() {
  if (active_ids_.empty()) {
    on_settled(nullptr);
    return;
  }
  loads_.clear();
  for (int app : active_ids_)
    loads_.push_back({app, apps_[app].cluster, apps_[app].payoff});
  const MultiReschedule r = scheduler_.reschedule(loads_);
  ++counters_.reschedules;
  if (r.warm) {
    ++counters_.warm_solves;
    counters_.repaired_solves += r.repaired;
    counters_.warm_seconds += r.seconds;
  } else {
    ++counters_.cold_solves;
    counters_.cold_seconds += r.seconds;
  }
  for (std::size_t i = 0; i < active_ids_.size(); ++i)
    rate_[active_ids_[i]] = r.rate[i];
  on_settled(&r);
}

double EventCore::next_completion() {
  settle();
  double t = kInf;
  for (int app : active_ids_) {
    if (rate_[app] <= 0.0) continue;
    t = std::min(t, now_ + remaining_[app] / rate_[app]);
  }
  return t;
}

void EventCore::drain_to(double vt) {
  const double dt = vt - now_;
  if (dt > 0.0) {
    double work_rate = 0.0;
    weighted_rates_.clear();
    for (int app : active_ids_) {
      work_rate += rate_[app];
      weighted_rates_.push_back(apps_[app].payoff * rate_[app]);
      remaining_[app] -= rate_[app] * dt;
      counters_.total_work += rate_[app] * dt;
    }
    metrics_.record_interval(dt, work_rate, total_speed_, weighted_rates_);
  }
  now_ = std::max(now_, vt);
}

int EventCore::record_arrival(double vt, int cluster, double payoff,
                              double load) {
  AppRecord rec;
  rec.id = static_cast<int>(apps_.size());
  rec.cluster = cluster;
  rec.payoff = payoff;
  rec.load = load;
  rec.arrival = vt;
  apps_.push_back(rec);
  remaining_.push_back(0.0);
  rate_.push_back(0.0);
  ++counters_.arrivals;
  return rec.id;
}

void EventCore::admit(int app, double at,
                      std::vector<int>::const_iterator pos) {
  apps_[app].admit = at;
  remaining_[app] = apps_[app].load;
  active_ids_.insert(pos, app);
  ++counters_.admitted;
  counters_.peak_active = std::max(counters_.peak_active, active_count());
  dirty_ = true;
}

void EventCore::retire(int app, AppOutcome outcome) {
  AppRecord& rec = apps_[app];
  rec.depart = now_;
  rec.outcome = outcome;
  rate_[app] = 0.0;
  if (outcome == AppOutcome::Completed) {
    const double speed = dyn_.plat().cluster(rec.cluster).speed;
    rec.slowdown = speed > 0.0 ? rec.response() / (rec.load / speed) : 0.0;
    metrics_.record_completion(rec);
    ++counters_.completed;
    counters_.makespan = now_;
  } else if (outcome == AppOutcome::AbortedChurn) {
    ++counters_.aborted_churn;
  } else {
    ++counters_.cancelled;
  }
  on_departure(rec);
}

void EventCore::complete_due() {
  std::size_t keep = 0;
  for (std::size_t i = 0; i < active_ids_.size(); ++i) {
    const int app = active_ids_[i];
    if (remaining_[app] > kLoadEps) {
      active_ids_[keep++] = app;
      continue;
    }
    retire(app, AppOutcome::Completed);
    dirty_ = true;
    const int heir = successor(app);
    if (heir < 0) continue;
    // The hand-over keeps the departed application's place in the
    // active order.
    apps_[heir].admit = now_;
    remaining_[heir] = apps_[heir].load;
    ++counters_.admitted;
    active_ids_[keep++] = heir;
  }
  active_ids_.resize(keep);
}

void EventCore::advance_to(double vt) {
  while (vt > now_) {
    drain_to(std::min(next_completion(), vt));
    complete_due();
  }
}

dynamics::ChangeScope EventCore::apply_event(double vt,
                                             const dynamics::PlatformEvent& ev) {
  advance_to(vt);
  const dynamics::ChangeScope scope = dyn_.apply(ev);
  ++counters_.platform_events;
  on_platform_event(ev, scope);
  if (ev.kind == dynamics::EventKind::ClusterLeave) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < active_ids_.size(); ++i) {
      const int app = active_ids_[i];
      if (apps_[app].cluster != ev.target) {
        active_ids_[keep++] = app;
      } else {
        retire(app, AppOutcome::AbortedChurn);
        dirty_ = true;
      }
    }
    active_ids_.resize(keep);
    cluster_left(ev.target);
  }
  if (scope != dynamics::ChangeScope::None) {
    if (scope == dynamics::ChangeScope::Capacity) {
      scheduler_.platform_capacity_changed();
    } else {
      scheduler_.platform_topology_changed();
    }
    refresh_total_speed();
    dirty_ = true;
  }
  return scope;
}

double ReplayCursor::next_time() {
  double t = core_->next_completion();
  if (next_arrival_ < workload_->arrivals.size())
    t = std::min(t, workload_->arrivals[next_arrival_].time);
  if (next_event_ < trace_->events.size())
    t = std::min(t, trace_->events[next_event_].time);
  return t;
}

bool ReplayCursor::step(double budget) {
  const double t = next_time();
  // Infinity <= infinity: test finiteness explicitly, or an idle
  // cursor with an unlimited budget would advance to +inf.
  if (!std::isfinite(t) || !(t <= budget)) return false;
  core_->advance_to(t);
  while (next_event_ < trace_->events.size() &&
         trace_->events[next_event_].time <= t) {
    const dynamics::PlatformEvent& ev = trace_->events[next_event_++];
    (void)core_->apply_event(ev.time, ev);
  }
  while (next_arrival_ < workload_->arrivals.size() &&
         workload_->arrivals[next_arrival_].time <= t)
    core_->replay_arrival(workload_->arrivals[next_arrival_++]);
  core_->settle();
  return true;
}

void ReplayCursor::run_to_end() {
  while (next_arrival_ < workload_->arrivals.size() ||
         core_->active_count() > 0)
    require(step(kInf),
            "online engine stalled: active applications but no draining "
            "rate and no arrivals or platform events pending");
}

}  // namespace dls::online
