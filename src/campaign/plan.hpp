// The campaign plan: the deterministic expansion of a ScenarioSpec into
// its flat case matrix, split out of the runner so that every execution
// surface — the in-process runner, the distributed coordinator and the
// worker processes — agrees on case numbering from the spec alone.
//
// Expansion order (load-bearing for sharding and for the distributed
// range protocol): for each platform cell -> scenario -> objective, an
// *offline* scenario (workload none) contributes one aggregation group
// per greedy-exhaust axis value and, per replication, one case per
// exhaust value, while a *stream* scenario contributes one group per
// (warm policy, method) pair and one case per replication. Case indices
// number that flat order; any contiguous index range therefore means
// the same cases on every machine that parsed the same spec.
//
// The plan also owns execution units. The exhaust siblings of an
// offline case (same cell, scenario, objective and replication) differ
// only in the greedy's local-exhaust policy, so they share one
// relaxation solve; they are adjacent in case order and share one
// `CaseDef::unit` ordinal. Every other case is a unit alone. Unit
// ordinals ascend with case index, so a unit is a contiguous index
// range: shards (`unit mod n`), leases and the worker all run whole
// units by reading the ordinal, never by re-deriving the rule.
//
// Seed streams are derived, not shared: the platform stream is a pure
// function of (spec seed, cell, replication), the workload stream of
// (spec seed, replication) — deliberately scenario-independent, so the
// static/dynamic scenario pairing of the degradation reports replays
// literally the same arrivals — and the event stream of (spec seed,
// cell, scenario, replication).
#pragma once

#include <cstdint>
#include <vector>

#include "campaign/spec.hpp"

namespace dls::campaign {

struct CampaignReport;  // runner.hpp

/// One case of the expanded matrix.
struct CaseDef {
  std::size_t group = 0;  ///< index into CampaignReport::groups
  int cell = 0;
  int scen = 0;
  int objective = 0;
  int warm = 0;     ///< stream cases only
  int method = 0;   ///< stream cases only (index into spec.methods)
  int exhaust = 0;  ///< offline cases only
  int rep = 0;
  bool offline = false;
  bool loads = false;  ///< multi-load cell (`loads` axis); one joint solve
  /// Execution-unit ordinal: equal for an offline case's adjacent
  /// exhaust siblings, distinct for every other case; ascends with the
  /// case index.
  std::size_t unit = 0;
};

/// Expands the spec: fills `report.groups` (empty aggregates, labels and
/// metric names set) and returns the flat case list in expansion order.
/// Pure function of the spec — every process that expands the same spec
/// sees the same groups and the same case numbering.
[[nodiscard]] std::vector<CaseDef> expand_cases(const ScenarioSpec& spec,
                                                CampaignReport& report);

[[nodiscard]] bool has_method(const ScenarioSpec& spec, Method m);

/// Hash-combine with a SplitMix64 finalizer: every derived stream is a
/// pure function of (spec seed, axis indices), independent of sharding,
/// worker count and machine.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t h, std::uint64_t v);

// The derived seed streams (see the header comment for the contract).
[[nodiscard]] std::uint64_t platform_stream_seed(const ScenarioSpec& spec,
                                                 int cell, int rep);
[[nodiscard]] std::uint64_t payoff_stream_seed(const ScenarioSpec& spec,
                                               int cell, int rep);
[[nodiscard]] std::uint64_t workload_stream_seed(const ScenarioSpec& spec,
                                                 int rep);
[[nodiscard]] std::uint64_t events_stream_seed(const ScenarioSpec& spec,
                                               int cell, int scen, int rep);
/// Load-set sampling for `loads` cells: a function of (spec seed, cell,
/// replication) only — deliberately scenario-independent, like the
/// workload stream, so loads cells that differ only in objective sample
/// literally the same load set and the fairness comparison runs on
/// common random numbers.
[[nodiscard]] std::uint64_t loads_stream_seed(const ScenarioSpec& spec,
                                              int cell, int rep);

/// FNV-1a over the canonical spec text: the distributed protocol and the
/// checkpoint format use it to refuse mixing plans from different specs
/// (a worker on spec A must never execute ranges of spec B, and a
/// checkpoint must never seed a resumed run of an edited spec).
[[nodiscard]] std::uint64_t spec_fingerprint(const ScenarioSpec& spec);

}  // namespace dls::campaign
