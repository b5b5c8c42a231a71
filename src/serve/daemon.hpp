// The `dls serve` daemon: ServeEngine behind the support::EventLoop
// the dist coordinator also runs, so nothing in the engine needs
// locking. Each iteration steps the replay, checks the drain, then
// runs one loop round that sleeps until the next replay item is due
// (200 ms at most). Each request in a connection's buffer
// (parse_request, kMaxRequestBytes) is HTTP (GET /metrics, /health,
// /stats, /loads; POST /arrive, /depart, /event, /shutdown) or a line
// command. HTTP responses send `Connection: close` and close; line
// connections stay open for pipelining.
//
// Replay: `--replay trace.workload` (plus optional `--events`) feeds a
// recorded stream through the live engine with the batch engine's
// ReplayCursor (online/event_core.hpp), stepped while the next item is
// within the virtual time paid for by the wall clock (`replay_speed`
// times wall clock, 0 = as fast as possible). The engine only ever advances
// to *exact* event times — wall jitter shifts when work happens, never
// what happens — so two replays of the same trace end with
// bit-identical counters, equal to `dls online --loads`. Client
// mutations are settled (rescheduled) before they are acknowledged.
//
// Lifecycle: ok → (SIGTERM / `shutdown`) → draining → stopped. On
// drain the daemon stops feeding replay arrivals, rejects client
// arrivals (counted), fast-forwards the remaining fluid schedule, and
// exits once idle — holding the socket open for at least
// `drain_grace` seconds so an operator can scrape the final state.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "dynamics/events.hpp"
#include "online/workload.hpp"
#include "platform/platform.hpp"
#include "serve/engine.hpp"

namespace dls::serve {

struct DaemonOptions {
  std::uint16_t port = 0;      ///< 0 = ephemeral
  std::string port_file;       ///< written with the bound port
  EngineOptions engine;

  online::Workload replay;       ///< optional recorded arrivals
  dynamics::EventTrace events;   ///< optional platform events (replay)
  double replay_speed = 1.0;     ///< virtual seconds per wall second; <= 0 = max
  bool exit_after_replay = false;  ///< drain and stop once the replay is done

  std::string trace_file;        ///< JSONL span sink ("" = none)
  double drain_grace = 0.0;  ///< min wall seconds to keep serving while draining

  /// Polled once per loop; true requests a drain (the CLI wires this to
  /// SIGTERM/SIGINT). Optional.
  std::function<bool()> stop_requested;
  std::function<void(const std::string&)> log;
};

struct DaemonReport {
  EngineCounters counters;
  std::uint64_t requests = 0;      ///< requests served (HTTP + line)
  std::uint64_t bad_requests = 0;  ///< protocol errors (connection dropped)
  std::uint16_t port = 0;          ///< the port actually bound
  std::string exit_reason;         ///< "drained" | "replay-complete"
};

/// Runs the daemon until a drain completes. Throws dls::Error on setup
/// failures (bind, trace sink, invalid replay).
DaemonReport run_daemon(platform::Platform plat, const DaemonOptions& options);

}  // namespace dls::serve
