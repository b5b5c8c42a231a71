#include "online/multi_core.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace dls::online {

const char* to_string(Admit a) {
  switch (a) {
    case Admit::Admitted: return "admitted";
    case Admit::RejectedOverload: return "rejected_overload";
    case Admit::RejectedAbsent: return "rejected_absent";
    case Admit::RejectedDraining: return "rejected_draining";
  }
  return "?";
}

MultiLoadCore::MultiLoadCore(platform::Platform base, CoreOptions options)
    : EventCore(std::move(base), options.sched),
      options_(std::move(options)) {
  require(options_.max_loads >= 0, "max_loads cannot be negative");
}

MultiLoadCore::ArriveResult MultiLoadCore::arrive(double vt, int cluster,
                                                  double payoff, double load,
                                                  std::string name) {
  require(cluster >= 0 && cluster < plat().num_clusters(),
          "arrival cluster out of range");
  require(payoff > 0.0, "arrival payoff must be positive");
  require(load > kLoadEps, "arrival load must exceed 1e-6");
  advance_to(vt);
  const int id = record_arrival(vt, cluster, payoff, load);
  names_.push_back(std::move(name));
  AppRecord& rec = apps_[id];
  ArriveResult out;
  if (draining_) {
    out.admit = Admit::RejectedDraining;
    rec.outcome = AppOutcome::RejectedAdmission;
    ++counters_.rejected_draining;
  } else if (!dyn_.cluster_present(cluster)) {
    out.admit = Admit::RejectedAbsent;
    rec.outcome = AppOutcome::RejectedChurn;
    ++counters_.rejected_absent;
  } else if (options_.max_loads > 0 && active_count() >= options_.max_loads) {
    out.admit = Admit::RejectedOverload;
    rec.outcome = AppOutcome::RejectedAdmission;
    ++counters_.rejected_overload;
  } else {
    out.admit = Admit::Admitted;
    out.id = id;
    admit(id, vt, active_ids_.end());
  }
  on_arrival(rec, out.admit);
  return out;
}

bool MultiLoadCore::depart(double vt, int id) {
  advance_to(vt);
  const auto it = std::find(active_ids_.begin(), active_ids_.end(), id);
  if (it == active_ids_.end()) return false;
  active_ids_.erase(it);
  retire(id, AppOutcome::Cancelled);
  dirty_ = true;
  return true;
}

}  // namespace dls::online
