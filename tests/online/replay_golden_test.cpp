// Golden pins for the online replays under platform dynamics: every
// AppRecord field and every deterministic report counter of
// OnlineEngine::run(workload, trace), in multi-load and in single-load
// mode, printed as C99 `%a` hex floats, must match the committed files
// byte for byte. The trace mixes capacity drift, link failures and
// cluster churn, so the pins cover completions, platform events, churn
// aborts and rejects. Single-load mode is pinned under both objectives
// (MaxMin, the default, and Sum).
//
// To re-record after an intended semantic change:
//   DLS_UPDATE_GOLDEN=1 ./dls_tests --gtest_filter='*LoadGolden.*'
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "online/engine.hpp"
#include "online/event_core.hpp"
#include "online/multi_core.hpp"
#include "platform/generator.hpp"

#ifndef DLS_SOURCE_DIR
#define DLS_SOURCE_DIR "."
#endif

namespace dls::online {
namespace {

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

/// Every non-wall-clock field of the report, one line per item.
std::string pin(const OnlineReport& r) {
  std::ostringstream os;
  os << "arrivals " << r.arrivals << "\ncompleted " << r.completed
     << "\naborted " << r.aborted << "\nrejected " << r.rejected
     << "\nreschedules " << r.reschedules << "\nqueued_arrivals "
     << r.queued_arrivals << "\nplatform_events " << r.platform_events
     << "\nwarm_solves " << r.warm_solves << "\ncold_solves " << r.cold_solves
     << "\nrepaired_solves " << r.repaired_solves << "\nmakespan "
     << hex(r.makespan) << "\ntotal_work " << hex(r.total_work)
     << "\npeak_active " << r.peak_active << "\npeak_queued " << r.peak_queued
     << "\nresponse_mean " << hex(r.metrics.response.mean()) << "\nwait_mean "
     << hex(r.metrics.wait.mean()) << "\nslowdown_mean "
     << hex(r.metrics.slowdown.mean()) << "\nutilization_mean "
     << hex(r.metrics.utilization.mean()) << "\nfairness_mean "
     << hex(r.metrics.fairness.mean()) << "\nactive_apps_mean "
     << hex(r.metrics.active_apps.mean()) << "\n";
  for (const AppRecord& a : r.apps)
    os << "app " << a.id << ' ' << a.cluster << ' ' << hex(a.payoff) << ' '
       << hex(a.load) << ' ' << hex(a.arrival) << ' ' << hex(a.admit) << ' '
       << hex(a.depart) << ' ' << hex(a.slowdown) << ' '
       << static_cast<int>(a.outcome) << "\n";
  return os.str();
}

struct Inputs {
  platform::Platform plat;
  Workload wl;
  dynamics::EventTrace trace;
};

Inputs inputs() {
  platform::GeneratorParams params;
  params.num_clusters = 6;
  params.ensure_connected = true;
  Rng prng(5);
  Inputs in{generate_platform(params, prng), {}, {}};
  PoissonParams p;
  p.count = 120;
  p.rate = 2.0;
  Rng wrng(17);
  in.wl = poisson_workload(p, 6, wrng);
  Rng trng(23);
  dynamics::ChurnParams churn;
  churn.horizon = 60.0;
  churn.mean_up = 15.0;
  churn.mean_down = 5.0;
  churn.churn_fraction = 0.5;
  in.trace = dynamics::EventTrace::merge(
      dynamics::scenario_trace(0.3, 0.6, 200.0, in.plat, trng),
      dynamics::churn_trace(in.plat, churn, trng));
  return in;
}

std::string multi_load_pins() {
  const Inputs in = inputs();
  std::string out;
  for (const core::MultiObjective objective :
       {core::MultiObjective::WeightedSum, core::MultiObjective::MaxMin,
        core::MultiObjective::PropFair}) {
    OnlineOptions options;
    options.multi_load = true;
    options.multi.solve.objective = objective;
    const OnlineReport report =
        OnlineEngine(in.plat, options).run(in.wl, in.trace);
    EXPECT_GT(report.platform_events, 0);
    EXPECT_GT(report.aborted + report.rejected, 0);
    out += "objective " + core::to_string(objective) + "\n" + pin(report);
  }
  return out;
}

/// The single-load replay (FIFO queues, one application per cluster),
/// fluid and simulated, over the same inputs.
std::string single_load_pins() {
  const Inputs in = inputs();
  std::string out;
  for (const Method method : {Method::Greedy, Method::Lpr}) {
    for (const RateModel model : {RateModel::Fluid, RateModel::Simulated}) {
      OnlineOptions options;
      options.sched.method = method;
      options.rate_model = model;
      const OnlineReport report =
          OnlineEngine(in.plat, options).run(in.wl, in.trace);
      EXPECT_GT(report.platform_events, 0);
      EXPECT_GT(report.queued_arrivals, 0);
      out += std::string("method ") + to_string(method) + " rate_model " +
             (model == RateModel::Fluid ? "fluid" : "simulated") + "\n" +
             pin(report);
    }
  }
  return out;
}

/// The single-load replay under Objective::Sum — the objective whose LP
/// methods patch one cached reduced model per event — for every method,
/// greedy cold (WarmPolicy::Auto) and seeded (WarmPolicy::Always), fluid
/// and simulated, over the same inputs.
std::string single_load_sum_pins() {
  const Inputs in = inputs();
  struct Arm {
    Method method;
    WarmPolicy warm;
    const char* label;
  };
  const Arm arms[] = {
      {Method::Greedy, WarmPolicy::Auto, "greedy-auto"},
      {Method::Greedy, WarmPolicy::Always, "greedy-always"},
      {Method::Lpr, WarmPolicy::Auto, "lpr"},
      {Method::Lprg, WarmPolicy::Auto, "lprg"},
      {Method::LpBound, WarmPolicy::Auto, "lp"},
  };
  std::string out;
  for (const Arm& arm : arms) {
    for (const RateModel model : {RateModel::Fluid, RateModel::Simulated}) {
      OnlineOptions options;
      options.sched.method = arm.method;
      options.sched.objective = core::Objective::Sum;
      options.sched.warm = arm.warm;
      options.rate_model = model;
      const OnlineReport report =
          OnlineEngine(in.plat, options).run(in.wl, in.trace);
      EXPECT_GT(report.platform_events, 0);
      EXPECT_GT(report.queued_arrivals, 0);
      out += std::string("method ") + arm.label + " rate_model " +
             (model == RateModel::Fluid ? "fluid" : "simulated") + "\n" +
             pin(report);
    }
  }
  return out;
}

/// An idle-heavy shared-LP trace at K = 32: three long-lived loads, a
/// burst of short loads on five clusters that grows their slot counts
/// 1 -> 2 -> 4 -> 8 one arrival at a time, a drain back to the
/// long-lived loads, capacity events (link bandwidth, max-connect and
/// gateway rescales) while most slot columns sit idle at [0,0], and
/// short late loads whose departures leave the warm capsule with basic
/// columns outside their new [0,0] bounds (the composite bound phase 1).
Inputs idle_slot_inputs() {
  platform::GeneratorParams params;
  params.num_clusters = 32;
  params.ensure_connected = true;
  Rng prng(11);
  Inputs in{generate_platform(params, prng), {}, {}};
  const auto arrive = [&in](double time, int cluster, double payoff,
                            double load) {
    in.wl.arrivals.push_back({time, cluster, payoff, load, ""});
  };
  arrive(0.0, 5, 1.0, 40000.0);
  arrive(0.0, 17, 1.5, 60000.0);
  arrive(0.0, 26, 0.75, 50000.0);
  const int burst[] = {0, 1, 2, 3, 8};
  for (int i = 0; i < 40; ++i)
    arrive(1.0 + 0.05 * i, burst[i % 5], 0.5 + 0.125 * (i % 7),
           400.0 + 50.0 * (i % 9));
  for (int i = 0; i < 8; ++i)
    arrive(60.0 + 7.0 * i, (3 * i + 9) % 32, 1.0 + 0.25 * (i % 3), 300.0);

  const platform::Platform& plat = in.plat;
  using dynamics::EventKind;
  auto& ev = in.trace.events;
  for (int i = 0; i < 6; ++i) {
    const double t = 30.0 + 9.0 * i;
    const int link = (7 * i + 3) % plat.num_links();
    ev.push_back({t, EventKind::LinkBandwidth, link,
                  plat.link(link).bw * (i % 2 == 0 ? 0.5 : 1.5)});
    ev.push_back({t + 2.0, EventKind::GatewayBandwidth, (5 * i + 1) % 32,
                  plat.cluster((5 * i + 1) % 32).gateway_bw * 0.6});
    ev.push_back({t + 4.0, EventKind::LinkMaxConnect, link,
                  static_cast<double>(plat.link(link).max_connections / 2 + 1)});
  }
  return in;
}

/// The idle-heavy trace under both slot-universe objectives in
/// multi-load mode, and under single-load Sum with the LP bound (the
/// canonical model, idle clusters as zero-weight columns).
std::string idle_slot_pins() {
  const Inputs in = idle_slot_inputs();
  std::string out;
  for (const core::MultiObjective objective :
       {core::MultiObjective::WeightedSum, core::MultiObjective::PropFair}) {
    OnlineOptions options;
    options.multi_load = true;
    options.multi.solve.objective = objective;
    const OnlineReport report =
        OnlineEngine(in.plat, options).run(in.wl, in.trace);
    EXPECT_EQ(report.platform_events, in.trace.size());
    EXPECT_GT(report.warm_solves, report.cold_solves);
    out += "objective " + core::to_string(objective) + "\n" + pin(report);
  }
  OnlineOptions options;
  options.sched.method = Method::LpBound;
  options.sched.objective = core::Objective::Sum;
  const OnlineReport report = OnlineEngine(in.plat, options).run(in.wl, in.trace);
  EXPECT_GT(report.queued_arrivals, 0);
  out += "method lp objective SUM\n" + pin(report);
  return out;
}

/// A multi-load core that checks every reschedule of its replay against
/// a cold solve (a fresh WarmPolicy::Never rescheduler) of the same
/// active set on the same platform.
class ColdCheckedCore final : public MultiLoadCore {
public:
  ColdCheckedCore(const platform::Platform& plat, const CoreOptions& options)
      : MultiLoadCore(plat, options), cold_(options.sched) {
    cold_.warm = WarmPolicy::Never;
  }
  int checked = 0, warm = 0, repaired = 0;

protected:
  void on_settled(const MultiReschedule* r) override {
    if (r == nullptr) return;
    std::vector<ActiveLoad> loads;
    for (const int app : active_ids())
      loads.push_back({app, apps()[app].cluster, apps()[app].payoff});
    MultiLoadRescheduler cold(plat(), cold_);
    const MultiReschedule c = cold.reschedule(loads);
    EXPECT_NEAR(r->objective, c.objective, 1e-9 * std::fabs(c.objective))
        << "reschedule " << checked << " at t=" << now();
    ++checked;
    warm += r->warm;
    repaired += r->repaired;
  }

private:
  MultiReschedulerOptions cold_;
};

/// Every reschedule the pinned multi-load replays run (each objective of
/// the dynamics trace and each slot-universe objective of the idle-slot
/// trace) reaches the cold objective within 1e-9 relative, whether it was
/// restored whole, repaired across a capacity event or slot growth, or
/// solved cold.
TEST(MultiLoadGolden, EveryPinnedRescheduleReachesTheColdObjective) {
  struct Arm {
    Inputs in;
    std::vector<core::MultiObjective> objectives;
    bool growth_only;  ///< no topology event resets the slot universe
  };
  const Arm arms[] = {
      {inputs(),
       {core::MultiObjective::WeightedSum, core::MultiObjective::MaxMin,
        core::MultiObjective::PropFair},
       false},
      {idle_slot_inputs(),
       {core::MultiObjective::WeightedSum, core::MultiObjective::PropFair},
       true},
  };
  for (const Arm& arm : arms) {
    for (const core::MultiObjective objective : arm.objectives) {
      CoreOptions options;
      options.sched.solve.objective = objective;
      ColdCheckedCore core(arm.in.plat, options);
      ReplayCursor(core, arm.in.wl, arm.in.trace).run_to_end();
      EXPECT_GT(core.checked, 20);
      EXPECT_GT(core.repaired, 0);
      // The idle-slot trace has no topology event: after the first solve
      // its slot growths and capacity events all stay warm.
      if (arm.growth_only) {
        EXPECT_EQ(core.warm, core.checked - 1) << core::to_string(objective);
      }
    }
  }
}

/// Compares `got` with the committed file, or re-records it when
/// DLS_UPDATE_GOLDEN is set.
void check_golden(const std::string& name, const std::string& got) {
  const std::string path =
      std::string(DLS_SOURCE_DIR) + "/tests/online/data/" + name;
  if (std::getenv("DLS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::trunc) << got;
    GTEST_SKIP() << "re-recorded " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str());
}

TEST(MultiLoadGolden, DynamicsReplayMatchesCommittedPin) {
  check_golden("run_multi_golden.txt", multi_load_pins());
}

TEST(SingleLoadGolden, DynamicsReplayMatchesCommittedPin) {
  check_golden("run_single_golden.txt", single_load_pins());
}

TEST(SingleLoadGolden, SumReplayMatchesCommittedPin) {
  check_golden("run_single_sum_golden.txt", single_load_sum_pins());
}

TEST(MultiLoadGolden, IdleSlotReplayMatchesCommittedPin) {
  check_golden("run_idle_slots_golden.txt", idle_slot_pins());
}

}  // namespace
}  // namespace dls::online
