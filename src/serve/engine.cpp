#include "serve/engine.hpp"

#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dls::serve {

namespace {

// Serve-level lifecycle series. Solver and rescheduler internals are
// counted one layer down (lp/, online/); these cover what the daemon
// itself decides: admission outcomes and load lifecycles.
/// Response-time buckets (virtual seconds). Loads drain over fluid
/// schedules, so responses span replay pacing, not network latency:
/// a decade-and-thirds ladder up to 10^4 keeps every realistic trace
/// inside the finite buckets.
const std::vector<double>& response_buckets() {
  static const std::vector<double> buckets = {0.1,  0.3,   1.0,   3.0,
                                              10.0, 30.0,  100.0, 300.0,
                                              1e3,  3e3,   1e4};
  return buckets;
}

struct ServeObs {
  obs::Counter admitted, rej_overload, rej_absent, rej_draining;
  obs::Counter completed, cancelled, aborted;
  obs::Histogram resp_completed, resp_cancelled, resp_aborted;
  obs::Gauge active;
  ServeObs() {
    auto& reg = obs::registry();
    const std::string arr = "dls_serve_arrivals_total";
    const std::string arr_help = "Arrival requests by admission outcome";
    admitted = reg.counter(arr, arr_help, "outcome=\"admitted\"");
    rej_overload = reg.counter(arr, arr_help, "outcome=\"rejected_overload\"");
    rej_absent = reg.counter(arr, arr_help, "outcome=\"rejected_absent\"");
    rej_draining = reg.counter(arr, arr_help, "outcome=\"rejected_draining\"");
    const std::string dep = "dls_serve_departures_total";
    const std::string dep_help = "Load departures by reason";
    completed = reg.counter(dep, dep_help, "reason=\"completed\"");
    cancelled = reg.counter(dep, dep_help, "reason=\"cancelled\"");
    aborted = reg.counter(dep, dep_help, "reason=\"aborted_churn\"");
    const std::string resp = "dls_serve_response_seconds";
    const std::string resp_help =
        "Load response time (virtual seconds, arrival to departure) by outcome";
    resp_completed =
        reg.histogram(resp, resp_help, response_buckets(), "outcome=\"completed\"");
    resp_cancelled =
        reg.histogram(resp, resp_help, response_buckets(), "outcome=\"cancelled\"");
    resp_aborted = reg.histogram(resp, resp_help, response_buckets(),
                                 "outcome=\"aborted_churn\"");
    active = reg.gauge("dls_serve_active_loads", "Loads currently draining");
  }
};

ServeObs& serve_obs() {
  static ServeObs handles;
  return handles;
}

}  // namespace

ServeEngine::ServeEngine(platform::Platform base, EngineOptions options)
    : MultiLoadCore(std::move(base), std::move(options)) {}

void ServeEngine::on_arrival(const online::AppRecord& rec, Admit admit) {
  ServeObs& o = serve_obs();
  switch (admit) {
    case Admit::Admitted: o.admitted.inc(); break;
    case Admit::RejectedOverload: o.rej_overload.inc(); break;
    case Admit::RejectedAbsent: o.rej_absent.inc(); break;
    case Admit::RejectedDraining: o.rej_draining.inc(); break;
  }
  obs::trace("serve.arrive",
             "cluster=" + std::to_string(rec.cluster) + " load=" +
                 std::to_string(rec.load) + " outcome=" + to_string(admit));
}

void ServeEngine::on_departure(const online::AppRecord& rec) {
  ServeObs& o = serve_obs();
  if (rec.outcome == online::AppOutcome::Completed) {
    o.completed.inc();
    o.resp_completed.observe(rec.response());
    obs::trace("serve.complete", "id=" + std::to_string(rec.id) +
                                     " response=" +
                                     std::to_string(rec.response()));
  } else if (rec.outcome == online::AppOutcome::Cancelled) {
    o.cancelled.inc();
    o.resp_cancelled.observe(rec.response());
    obs::trace("serve.cancel", "id=" + std::to_string(rec.id));
  } else {
    o.aborted.inc();
    o.resp_aborted.observe(rec.response());
  }
}

void ServeEngine::on_settled(const online::MultiReschedule* r) {
  serve_obs().active.set(static_cast<double>(active_count()));
  if (r == nullptr) return;
  obs::trace("serve.reschedule",
             "loads=" + std::to_string(active_count()) +
                 " start=" + (r->warm ? (r->repaired ? "repaired" : "warm")
                                      : "cold") +
                 " objective=" + std::to_string(r->objective));
}

void ServeEngine::on_platform_event(const dynamics::PlatformEvent& ev,
                                    dynamics::ChangeScope scope) {
  obs::trace("serve.platform_event",
             std::string(dynamics::to_string(ev.kind)) + " target=" +
                 std::to_string(ev.target) + " scope=" +
                 dynamics::to_string(scope));
}

}  // namespace dls::serve
