// Reusable simulation engine for fluid bandwidth-sharing execution.
//
// The engine keeps solver state alive across the events of a period
// instead of rebuilding a FairShareProblem and re-running progressive
// filling after every completion:
//
//   * per-resource tables of the live entities (and their total weight)
//     are kept alive across events and updated by deltas when an entity
//     completes;
//   * completions are driven by an event calendar — a binary min-heap of
//     projected finish times, invalidated lazily through per-entity
//     version counters when a rate changes — instead of an O(live) scan
//     per event;
//   * when an entity completes, only its *connected component* (entities
//     transitively reachable through shared resources) can change rate,
//     because weighted max-min fairness decomposes across components; the
//     engine re-runs progressive filling over that component only
//     (dirty-set propagation) and skips the solve outright when every
//     affected entity already sits at its individual cap.
//
// The from-scratch loop (one full progressive-filling pass per event)
// lives in tests/sim as the oracle this engine is checked against.
//
// How items translate into rate caps and weights (the sharing policy) is
// the simulator's business (simulator.cpp); the engine sees only sizes,
// resources, caps and weights.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "sim/fair_share.hpp"

namespace dls::sim {

/// One unit of period work handed to the engine: `size` units of load
/// drawing rate from `resources` under an individual cap and share weight.
struct EngineItem {
  double size = 0.0;
  std::vector<int> resources;  ///< shared resource indices it uses
  double cap = FairShareProblem::kNoCap;
  double weight = 1.0;
};

/// Counters of one executed period.
struct PeriodStats {
  double duration = 0.0;
  std::int64_t events = 0;  ///< item completions
  /// Progressive-filling passes over the *entire* live set (period-start
  /// solves, plus any event-driven solve whose dirty component happened to
  /// span every live entity).
  std::int64_t full_solves = 0;
  /// Component-limited re-solves (strict subsets of the live set).
  std::int64_t partial_solves = 0;
};

// ---- engine -----------------------------------------------------------------

/// Executes periods of work items over a fixed set of shared resources.
/// Reusable across periods (buffers persist); one instance per thread.
///
/// Stepping interface: begin_period() loads items and solves initial
/// rates; step() advances to the next completion. Tests use the stepping
/// form to check the live allocation against the max-min oracle after
/// every event; simulate_schedule uses run_period().
class SimEngine {
public:
  explicit SimEngine(std::vector<double> capacities);

  /// Loads one period of work and computes initial rates. Items of zero
  /// size complete immediately. Items with positive size must have a
  /// positive cap or use at least one resource.
  void begin_period(const std::vector<EngineItem>& items);

  /// Advances to the next completion event (one completion per step);
  /// returns its absolute time within the period, or nullopt when no
  /// live work remains.
  std::optional<double> step();

  /// Drives the loaded period to completion and returns its stats.
  PeriodStats finish_period();

  /// Convenience: begin_period + finish_period.
  PeriodStats run_period(const std::vector<EngineItem>& items);

  /// Replaces one shared resource's capacity (a period-boundary platform
  /// event, see sim::CapacityRevision). Only legal between periods: the
  /// live rate tables of a period in progress still price the old value.
  void set_capacity(int resource, double value);

  [[nodiscard]] const std::vector<double>& capacities() const { return capacities_; }
  [[nodiscard]] int num_items() const { return static_cast<int>(items_.size()); }
  [[nodiscard]] int num_live() const { return num_live_; }
  [[nodiscard]] bool is_live(int item) const { return ents_[item].alive; }
  /// Current rate of a live item (meaningless once it completed).
  [[nodiscard]] double rate(int item) const { return ents_[item].rate; }
  /// Running counters of the period in progress (duration is filled in by
  /// finish_period).
  [[nodiscard]] const PeriodStats& stats() const { return stats_; }

private:
  struct Entity {
    double remaining = 0.0;
    double rate = 0.0;
    double last_sync = 0.0;  ///< time `remaining` was last made current
    std::uint32_t version = 0;  ///< bumped on rate change; stale events skipped
    bool alive = false;
  };

  struct Event {
    double time = 0.0;
    int item = -1;
    std::uint32_t version = 0;
    bool operator>(const Event& o) const { return time > o.time; }
  };

  void solve_every_live();
  void push_event(int item);
  /// Collects the connected component around `seed_item`'s resources into
  /// comp_items_/comp_resources_ (excluding completed entities).
  void collect_component(int seed_item);

  std::vector<double> capacities_;

  // ---- per-period state (buffers persist across periods) ----
  std::vector<EngineItem> items_;
  std::vector<Entity> ents_;
  std::vector<std::vector<int>> res_live_;  ///< live entity ids per resource
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> calendar_;
  double now_ = 0.0;
  int num_live_ = 0;
  PeriodStats stats_;

  // ---- scratch for component collection / sub-solves ----
  std::vector<int> comp_items_;
  std::vector<int> comp_resources_;
  std::vector<std::uint32_t> item_mark_;
  std::vector<std::uint32_t> res_mark_;
  std::vector<int> res_local_;  ///< resource -> local index in sub-problem
  std::uint32_t epoch_ = 0;
  FairShareProblem scratch_problem_;
};

}  // namespace dls::sim
