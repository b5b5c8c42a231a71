// The multi-load event core: every running application is a load in ONE
// shared LP (MultiLoadRescheduler), clusters host any number of
// concurrent loads and no queues form. It is the state machine behind
// `dls online --loads` (OnlineEngine::run replays it with a
// ReplayCursor) and `dls serve` (serve::ServeEngine subclasses it to
// export metrics; the daemon paces the same cursor by wall clock and
// adds client calls between steps). event_core.hpp states the settle
// rule and the tie order both drivers follow.
//
// On top of EventCore it adds admission control — home-cluster
// presence, a max_loads budget and draining, each reject counted
// separately so an operator can tell overload from churn from shutdown
// — and client cancellation.
#pragma once

#include <string>
#include <vector>

#include "online/event_core.hpp"
#include "online/rescheduler.hpp"

namespace dls::online {

/// Outcome of an arrival.
enum class Admit : unsigned char {
  Admitted,
  RejectedOverload,  ///< active set at the max_loads budget
  RejectedAbsent,    ///< home cluster churned out
  RejectedDraining,  ///< the core is draining toward shutdown
};

[[nodiscard]] const char* to_string(Admit a);

struct CoreOptions {
  MultiReschedulerOptions sched;
  /// Admission budget: reject arrivals once this many loads are active.
  /// 0 means unlimited.
  int max_loads = 0;
};

class MultiLoadCore : public EventCore {
public:
  MultiLoadCore(platform::Platform base, CoreOptions options);

  struct ArriveResult {
    Admit admit = Admit::RejectedOverload;
    int id = -1;  ///< app id when admitted
  };

  /// A load arrives at vt with `load` units homed on `cluster`,
  /// objective weight `payoff`. Throws dls::Error on invalid arguments
  /// (out-of-range cluster, non-positive payoff, load <= kLoadEps).
  ArriveResult arrive(double vt, int cluster, double payoff, double load,
                      std::string name = "");
  void replay_arrival(const AppArrival& a) override {
    (void)arrive(a.time, a.cluster, a.payoff, a.load, a.name);
  }

  /// Client withdraws load `id` at vt. False when it is not active.
  bool depart(double vt, int id);

  /// Shutdown: every subsequent arrival is RejectedDraining; active
  /// loads keep draining.
  void begin_drain() { draining_ = true; }
  [[nodiscard]] bool draining() const { return draining_; }

  [[nodiscard]] const std::string& app_name(int id) const {
    return names_[static_cast<std::size_t>(id)];
  }

protected:
  /// Observation hook for the daemon.
  virtual void on_arrival(const AppRecord& /*rec*/, Admit /*admit*/) {}

private:
  CoreOptions options_;
  bool draining_ = false;
  std::vector<std::string> names_;
};

}  // namespace dls::online
