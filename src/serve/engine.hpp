// The daemon's engine: online::MultiLoadCore (multi_core.hpp) — the
// same core `dls online --loads` replays — plus the serve-level
// metrics and trace spans (dls_serve_arrivals_total,
// dls_serve_departures_total, dls_serve_response_seconds,
// dls_serve_active_loads) fed from the core's observation hooks.
//
// The daemon (daemon.hpp) drives it two ways: a ReplayCursor paced by
// wall clock for recorded traces, and direct arrive/depart/apply_event
// calls for client requests, each followed by an explicit settle() so
// an acknowledgement still means "rescheduled". Tests drive it
// directly.
#pragma once

#include "online/multi_core.hpp"

namespace dls::serve {

using online::Admit;
using EngineOptions = online::CoreOptions;
using EngineCounters = online::CoreCounters;

class ServeEngine final : public online::MultiLoadCore {
public:
  ServeEngine(platform::Platform base, EngineOptions options);

private:
  void on_arrival(const online::AppRecord& rec, Admit admit) override;
  void on_departure(const online::AppRecord& rec) override;
  void on_settled(const online::MultiReschedule* r) override;
  void on_platform_event(const dynamics::PlatformEvent& ev,
                         dynamics::ChangeScope scope) override;
};

}  // namespace dls::serve
