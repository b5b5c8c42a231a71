// Reusable simulation engine for fluid bandwidth-sharing execution.
//
// This layer replaces the original per-event from-scratch loop (rebuild a
// FairShareProblem and re-run progressive filling after every completion)
// with persistent solver state:
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
// The original algorithm is preserved as EngineKind::Rescan, both as a
// cross-check oracle for tests and as the reference the incremental
// engine's counters are compared against.
//
// Sharing models (how items translate into rate caps and weights) are
// policy objects (SharingModel), so new models — bounded-window TCP,
// RTT-biased variants — plug in without touching the engine.
#pragma once

#include <algorithm>
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

/// Which execution core drives a period.
enum class EngineKind {
  /// Pre-refactor reference: full progressive-filling pass per event.
  Rescan,
  /// Event calendar + component-limited delta re-solves (the default).
  Incremental,
};

// ---- sharing-model policy ---------------------------------------------------

/// What the simulator knows about an item when shaping it for the engine.
struct ItemContext {
  bool is_flow = false;
  double reserved_rate = 0.0;  ///< units / T_p, the schedule's fluid rate
  double rtt = 0.0;            ///< 2 * one-way route latency (flows only)
  int connections = 0;         ///< opened connections (flows only)
  /// Effective per-connection bottleneck bandwidth along the route (after
  /// max-connect admission scaling); +inf when no backbone link is crossed.
  double pbw = FairShareProblem::kNoCap;
};

/// Extra rate cap and share weight a sharing model assigns to one item.
/// The engine enforces cap in addition to the structural connection cap
/// (connections * pbw).
struct ItemShaping {
  double weight = 1.0;
  double cap = FairShareProblem::kNoCap;
};

/// A sharing model decides how items draw rate within a period. Stateless
/// and const: one instance may shape many simulations concurrently.
class SharingModel {
public:
  virtual ~SharingModel() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual ItemShaping shape(const ItemContext& ctx) const = 0;
};

/// Every item throttled to its reserved fluid rate (§3.2 feasibility
/// argument): a valid schedule completes exactly at the period boundary.
class PacedSharing final : public SharingModel {
public:
  [[nodiscard]] const char* name() const override { return "paced"; }
  [[nodiscard]] ItemShaping shape(const ItemContext& ctx) const override {
    return {1.0, ctx.reserved_rate};
  }
};

/// Work-conserving max-min fair sharing (TCP-like, no bias).
class MaxMinSharing final : public SharingModel {
public:
  [[nodiscard]] const char* name() const override { return "maxmin"; }
  [[nodiscard]] ItemShaping shape(const ItemContext&) const override { return {}; }
};

/// Max-min sharing with TCP's RTT bias: flow weight 1 / max(rtt, floor).
class TcpRttBiasSharing final : public SharingModel {
public:
  explicit TcpRttBiasSharing(double rtt_floor) : rtt_floor_(rtt_floor) {}
  [[nodiscard]] const char* name() const override { return "tcp-rtt-bias"; }
  [[nodiscard]] ItemShaping shape(const ItemContext& ctx) const override {
    if (!ctx.is_flow) return {};
    return {1.0 / std::max(ctx.rtt, rtt_floor_), FairShareProblem::kNoCap};
  }

private:
  double rtt_floor_;
};

/// Bounded-window TCP: each connection keeps at most `window` units in
/// flight, so a flow's rate is additionally capped at
/// connections * window / rtt — the classical W/RTT throughput ceiling.
/// On latency-free routes the cap is governed by the RTT floor alone.
class BoundedWindowSharing final : public SharingModel {
public:
  BoundedWindowSharing(double window, double rtt_floor)
      : window_(window), rtt_floor_(rtt_floor) {}
  [[nodiscard]] const char* name() const override { return "bounded-window"; }
  [[nodiscard]] ItemShaping shape(const ItemContext& ctx) const override {
    if (!ctx.is_flow) return {};
    const double rtt = std::max(ctx.rtt, rtt_floor_);
    return {1.0, ctx.connections * window_ / rtt};
  }

private:
  double window_;
  double rtt_floor_;
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
  explicit SimEngine(std::vector<double> capacities,
                     EngineKind kind = EngineKind::Incremental);

  /// Loads one period of work and computes initial rates. Items of zero
  /// size complete immediately. Items with positive size must have a
  /// positive cap or use at least one resource.
  void begin_period(const std::vector<EngineItem>& items);

  /// Advances to the next completion event; returns its absolute time
  /// within the period, or nullopt when no live work remains. (Rescan
  /// batches simultaneous completions into one step, matching the
  /// pre-refactor loop; Incremental pops one completion per step.)
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
  [[nodiscard]] EngineKind kind() const { return kind_; }
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
  std::optional<double> step_incremental();
  std::optional<double> step_rescan();
  /// Collects the connected component around `seed_item`'s resources into
  /// comp_items_/comp_resources_ (excluding completed entities).
  void collect_component(int seed_item);

  std::vector<double> capacities_;
  EngineKind kind_;

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
