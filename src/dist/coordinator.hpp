// The campaign coordinator: owns the deterministic case expansion of
// one ScenarioSpec and drives a fleet of worker processes through it,
// on the single-threaded support::EventLoop `dls serve` also runs.
// Each iteration hands out leases, runs one loop round (250 ms at
// most), folds the frames in each ready buffer (parse_frame), then
// sweeps heartbeat deadlines. Leases live in a per-fd Client table.
//
//   * hands out contiguous case-index ranges as leases (`RANGE`),
//   * collects streamed per-case records and folds them into the group
//     aggregates strictly in case order (the same `fold_case` path as
//     the in-process runner — this is what makes the distributed report
//     bit-identical to `dls campaign` for any worker count, death
//     schedule or resume point),
//   * merges the per-range Welford summaries workers attach to `DONE`
//     via support::Accumulator::merge as an integrity cross-check of
//     the exact fold (count drift or a lost/double-counted range is a
//     hard error, not a silently wrong report),
//   * re-queues ranges lost to worker death (EOF or heartbeat timeout;
//     at most 5 times per range) and re-queues a FAILed range once
//     before reporting the failure,
//   * snapshots {spec fingerprint, fold frontier, aggregate states,
//     pending records} to a checkpoint file every `snapshot_every`
//     completed ranges, so a restarted coordinator resumes instead of
//     re-running finished work.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"

namespace dls::dist {

struct CoordinatorOptions {
  std::uint16_t port = 0;      ///< 0 = ephemeral (see on_listen / port_file)
  std::string port_file;       ///< write the bound port here once listening
  std::size_t range_size = 8;  ///< cases per lease
  double heartbeat_timeout = 15.0;  ///< seconds of silence before a worker
                                    ///< is declared dead and its lease
                                    ///< re-queued

  std::string checkpoint_path;     ///< empty = no snapshots
  std::size_t snapshot_every = 8;  ///< completed ranges between snapshots
  bool resume = false;             ///< load checkpoint_path before serving

  /// Test hook: stop serving (checkpoint intact, workers dropped) after
  /// this many snapshots have been written. 0 = run to completion.
  std::size_t exit_after_snapshots = 0;

  /// Called with the bound port once the listener is up (in-process
  /// tests connect from here; the CLI writes port_file instead).
  std::function<void(std::uint16_t)> on_listen;
  /// Progress lines ("worker#2 connected", "folded 128/512", ...).
  std::function<void(const std::string&)> log;
  /// Streaming per-case sink, called in case order (the `--cases`
  /// stream). On a resumed run only newly folded cases are emitted.
  std::function<void(const campaign::CampaignReport&,
                     const campaign::CaseRecord&)> case_sink;
};

struct CoordinatorResult {
  campaign::CampaignReport report;
  /// False when exit_after_snapshots stopped the run early.
  bool complete = false;
  std::size_t folded_cases = 0;    ///< == total_cases when complete
  std::size_t resumed_cases = 0;   ///< restored from the checkpoint
  std::size_t executed_cases = 0;  ///< folded - resumed (ran this serve)
  std::size_t workers_seen = 0;
  std::size_t worker_deaths = 0;
  std::size_t ranges_requeued = 0;
  std::size_t snapshots_written = 0;
};

/// Serves the campaign until every case is folded (or the
/// exit_after_snapshots hook fires). Blocks; throws dls::Error on a
/// twice-FAILed range, a fingerprint-mismatched checkpoint, a failed
/// integrity cross-check, or socket setup failure.
[[nodiscard]] CoordinatorResult serve_campaign(const campaign::ScenarioSpec& spec,
                                               const CoordinatorOptions& options);

}  // namespace dls::dist
