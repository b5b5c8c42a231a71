// The campaign worker: connects to a coordinator, receives the spec
// over the wire (no spec file needed on the worker host), expands the
// same deterministic case matrix, and executes leased case-index
// ranges on a local thread pool, streaming per-case records back as
// bit-exact hex-float CASE frames.
//
// Failure containment (the distributed face of the thread-pool
// exception-propagation contract): a case that throws poisons only its
// range — the worker reports FAIL for the range and keeps serving; the
// coordinator re-queues the range once, then reports the failure. A
// heartbeat thread PINGs while ranges execute, so a busy worker is
// distinguishable from a dead one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace dls::dist {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int jobs = 0;  ///< local threads per range; 0 = hardware, 1 = inline
  /// Connect retry window: the coordinator may not be listening yet
  /// (scripts start both sides concurrently).
  double retry_seconds = 10.0;
  double heartbeat_period = 2.0;  ///< seconds between PINGs
  /// Progress lines ("connected", "range [lo,hi) done", ...).
  std::function<void(const std::string&)> log{};

  // -- test hooks ----------------------------------------------------------
  /// Called per case before execution; returning true makes the case
  /// throw (poisoned-case injection for the requeue tests).
  std::function<bool(std::size_t case_index)> fail_case{};
  /// When n > 0: on receiving the n-th RANGE lease, drop the connection
  /// without executing it — a worker dying mid-range, as seen by the
  /// coordinator (EOF with an outstanding lease).
  std::size_t die_on_range = 0;
  /// With die_on_range: raise SIGKILL instead of closing the socket —
  /// a real process death for the CLI smoke tests (`--die-mid-range`).
  bool die_hard = false;
};

struct WorkerResult {
  std::size_t ranges_done = 0;
  std::size_t cases_run = 0;
  /// True when the coordinator sent ABORT (fatal campaign error);
  /// abort_message carries its reason. A plain EOF (coordinator gone or
  /// finished without FIN) is a graceful stop, not an abort.
  bool aborted = false;
  std::string abort_message;
};

/// Blocks until the coordinator sends FIN/ABORT or disconnects. Throws
/// dls::Error when the coordinator cannot be reached within
/// retry_seconds or the wire protocol is violated.
[[nodiscard]] WorkerResult run_worker(const WorkerOptions& options);

}  // namespace dls::dist
