#include "online/rescheduler.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "support/timer.hpp"

namespace dls::online {

namespace {

int support_change(const std::vector<double>& a, const std::vector<double>& b) {
  int changed = 0;
  for (std::size_t k = 0; k < a.size(); ++k)
    changed += (a[k] > 0.0) != (b[k] > 0.0);
  return changed;
}

// Rescheduler-level series: solves by (mode, start kind), the slot
// universe's churn (seat/unseat patches, geometric growth), and queue
// depth. The lp layer separately counts the underlying simplex work.
struct ReschedObs {
  obs::Counter single_cold, single_warm, single_repaired;
  obs::Counter multi_cold, multi_warm, multi_repaired;
  obs::Counter seats, unseats, slot_grow;
  obs::Gauge slots, active_loads;
  ReschedObs() {
    auto& reg = obs::registry();
    const std::string solves = "dls_resched_solves_total";
    const std::string help = "Rescheduler solves by mode and start kind";
    single_cold = reg.counter(solves, help, "mode=\"single\",start=\"cold\"");
    single_warm = reg.counter(solves, help, "mode=\"single\",start=\"warm\"");
    single_repaired =
        reg.counter(solves, help, "mode=\"single\",start=\"repaired\"");
    multi_cold = reg.counter(solves, help, "mode=\"multi\",start=\"cold\"");
    multi_warm = reg.counter(solves, help, "mode=\"multi\",start=\"warm\"");
    multi_repaired =
        reg.counter(solves, help, "mode=\"multi\",start=\"repaired\"");
    seats = reg.counter("dls_resched_seats_total",
                        "Loads seated onto shared-LP slots");
    unseats = reg.counter("dls_resched_unseats_total",
                          "Slots released by departed loads");
    slot_grow = reg.counter("dls_resched_slot_grow_total",
                            "Slot-universe rebuilds (geometric growth)");
    slots = reg.gauge("dls_resched_slots", "Current shared-LP slot count");
    active_loads =
        reg.gauge("dls_resched_active_loads", "Loads in the last reschedule");
  }
};

ReschedObs& resched_obs() {
  static ReschedObs handles;
  return handles;
}

}  // namespace

const char* to_string(Method method) {
  switch (method) {
    case Method::Greedy: return "greedy";
    case Method::Lpr: return "lpr";
    case Method::Lprg: return "lprg";
    case Method::LpBound: return "lp";
  }
  return "?";
}

AdaptiveRescheduler::AdaptiveRescheduler(const platform::Platform& plat,
                                         ReschedulerOptions options)
    : plat_(&plat), options_(options) {
  require(options_.max_support_change >= 0,
          "AdaptiveRescheduler: max_support_change cannot be negative");
  // Per-event solves never read shadow prices; skip their extraction.
  options_.lp.compute_duals = false;
  // Successive models here are always small perturbations of one
  // another, the setting basis repair is designed for. With a static
  // platform the matrix fingerprint always matches and the flag is
  // inert; after a capacity event it turns the forced cold solve into a
  // statuses-only repair.
  options_.lp.warm_repair = true;
}

void AdaptiveRescheduler::reset() {
  warm_state_.invalidate();
  prev_allocation_.reset();
  prev_payoffs_.clear();
}

void AdaptiveRescheduler::platform_capacity_changed() {
  // The route table caches per-route pbw and the reduced model caches
  // capacities in rhs and max-connect coefficients: refresh both in
  // place instead of rebuilding them (the route set is unchanged).
  if (base_problem_) {
    const bool pbw_changed = base_problem_->refresh_route_bandwidths();
    if (reduced_cache_)
      base_problem_->update_reduced_capacities(*reduced_cache_, pbw_changed);
  }
  // Keep warm_state_ (capsule reuse or repair) and prev_payoffs_ (the
  // support-change rule is about payoffs, which did not move). The
  // greedy seed allocation may violate the new capacities; drop it.
  prev_allocation_.reset();
}

void AdaptiveRescheduler::platform_topology_changed() {
  base_problem_.reset();
  reduced_cache_.reset();
  reset();
}

Reschedule AdaptiveRescheduler::reschedule(const std::vector<double>& payoffs) {
  if (!base_problem_) {
    base_problem_.emplace(*plat_, payoffs, options_.objective);
  }
  const core::SteadyStateProblem problem = base_problem_->with_payoffs(payoffs);

  // Invalidation rule 1; rules 2 (model shape) and 3 (primal feasibility)
  // live inside the simplex, which rejects a basis that fails them.
  const bool have_prev = !prev_payoffs_.empty();
  const bool small_change =
      have_prev &&
      support_change(prev_payoffs_, payoffs) <= options_.max_support_change;
  const bool try_warm = options_.warm != WarmPolicy::Never &&
                        (options_.warm == WarmPolicy::Always ? have_prev
                                                             : small_change);

  WallTimer timer;
  Reschedule out{core::Allocation(problem.num_clusters())};
  if (options_.method == Method::Greedy) {
    // Auto keeps greedy cold: it solves no LP, so there is no phase-1
    // work to skip, and the seeded variant changes the objective.
    const bool seed = options_.warm == WarmPolicy::Always && try_warm &&
                      prev_allocation_.has_value();
    core::HeuristicResult r =
        seed ? core::run_greedy_warm(problem, *prev_allocation_, options_.greedy)
             : core::run_greedy(problem, options_.greedy);
    require(r.status == lp::SolveStatus::Optimal, "reschedule: greedy failed");
    out.allocation = std::move(r.allocation);
    out.objective = r.objective;
    out.warm = seed;
  } else {
    // The solve refreshes the capsule either way; invalidating first is
    // how rule 1 forces a cold start without losing the refresh.
    if (!try_warm) warm_state_.invalidate();
    core::LpWarmStart warm;
    warm.state = &warm_state_;
    warm.arena = &arena_;
    if (options_.objective == core::Objective::Sum) {
      if (!reduced_cache_) {
        reduced_cache_ = problem.build_reduced();
      } else {
        problem.update_reduced_payoffs(*reduced_cache_);
      }
      warm.reduced = &*reduced_cache_;
    }
    if (options_.method == Method::LpBound) {
      core::LpBoundResult r = core::lp_upper_bound(problem, options_.lp, &warm);
      require(r.status == lp::SolveStatus::Optimal, "reschedule: LP bound failed");
      out.allocation = std::move(r.allocation);
      out.objective = r.objective;
      out.lp_iterations = r.iterations;
    } else {
      core::HeuristicResult r =
          options_.method == Method::Lpr
              ? core::run_lpr(problem, options_.lp, &warm)
              : core::run_lprg(problem, options_.lp, options_.greedy, &warm);
      if (r.status != lp::SolveStatus::Optimal)
        throw Error(std::string("reschedule: method ") + to_string(options_.method) +
                    " failed");
      out.allocation = std::move(r.allocation);
      out.objective = r.objective;
      out.lp_iterations = r.lp_iterations;
    }
    out.warm = warm.used;
    out.repaired = warm.kind == lp::WarmKind::Basis;
  }
  out.seconds = timer.seconds();

  if (out.warm) {
    ++stats_.warm_solves;
    stats_.repaired_solves += out.repaired;
    stats_.warm_seconds += out.seconds;
    stats_.warm_iterations += out.lp_iterations;
    (out.repaired ? resched_obs().single_repaired : resched_obs().single_warm)
        .inc();
  } else {
    ++stats_.cold_solves;
    stats_.cold_seconds += out.seconds;
    stats_.cold_iterations += out.lp_iterations;
    resched_obs().single_cold.inc();
  }
  prev_payoffs_ = payoffs;
  prev_allocation_ = out.allocation;
  return out;
}

MultiLoadRescheduler::MultiLoadRescheduler(const platform::Platform& plat,
                                           MultiReschedulerOptions options)
    : plat_(&plat), options_(options) {
  // Same solver posture as the single-load rescheduler: per-event solves
  // never read duals, and successive models are small perturbations of
  // one another, so basis repair is always worth attempting.
  options_.solve.lp.compute_duals = false;
  options_.solve.lp.warm_repair = true;
}

void MultiLoadRescheduler::reset() {
  warm_state_.invalidate();
  slot_of_.clear();
  std::fill(slot_app_.begin(), slot_app_.end(), -1);
}

void MultiLoadRescheduler::platform_capacity_changed() {
  // Cached problems bake per-route pbw, and the reduced model bakes
  // capacities into rhs and max-connect coefficients: patch both in
  // place (bit-identical to a rebuild). The capsule survives for a whole
  // (rhs-only) or repaired (re-priced) warm start.
  if (problem_) {
    const bool pbw_changed = problem_->refresh_route_bandwidths();
    if (reduced_cache_) problem_->update_reduced_capacities(*reduced_cache_, pbw_changed);
  }
  if (maxmin_problem_) maxmin_problem_->refresh_route_bandwidths();
}

void MultiLoadRescheduler::platform_topology_changed() {
  problem_.reset();
  maxmin_problem_.reset();
  reduced_cache_.reset();
  slots_per_cluster_.clear();
  slot_base_.clear();
  slot_app_.clear();
  total_slots_ = 0;
  reset();
}

void MultiLoadRescheduler::rebuild_slots(const std::vector<int>& needed) {
  const int n = plat_->num_clusters();
  if (static_cast<int>(slots_per_cluster_.size()) != n)
    slots_per_cluster_.assign(n, 1);
  // Geometric growth: doubling amortizes rebuilds to O(log max-concurrency)
  // cold solves per cluster over a whole run.
  for (int c = 0; c < n; ++c)
    if (needed[c] > slots_per_cluster_[c])
      slots_per_cluster_[c] = std::max(needed[c], 2 * slots_per_cluster_[c]);
  slot_base_.assign(n, 0);
  total_slots_ = 0;
  for (int c = 0; c < n; ++c) {
    slot_base_[c] = total_slots_;
    total_slots_ += slots_per_cluster_[c];
  }
  slot_app_.assign(total_slots_, -1);
  slot_of_.clear();
  // The model reshapes: a capsule saved against the old slot universe
  // cannot fit and rejecting it eagerly keeps the stats honest. The slot
  // problem keeps its route table; solve_shared re-derives it with
  // with_loads and rebuilds the reduced model.
  warm_state_.invalidate();
  reduced_cache_.reset();
  resched_obs().slot_grow.inc();
  resched_obs().slots.set(static_cast<double>(total_slots_));
}

MultiReschedule MultiLoadRescheduler::solve_shared(
    const std::vector<ActiveLoad>& loads) {
  const int n = plat_->num_clusters();
  std::vector<int> needed(n, 0);
  for (const ActiveLoad& load : loads) ++needed[load.cluster];

  bool grown = static_cast<int>(slots_per_cluster_.size()) != n;
  for (int c = 0; !grown && c < n; ++c) grown = needed[c] > slots_per_cluster_[c];
  if (grown) rebuild_slots(needed);

  // Release slots of departed loads, then seat new arrivals on the
  // lowest idle slot of their cluster (deterministic in call order).
  std::vector<char> present(slot_app_.size(), 0);
  for (const ActiveLoad& load : loads) {
    auto it = slot_of_.find(load.id);
    if (it != slot_of_.end()) present[it->second] = 1;
  }
  for (int s = 0; s < total_slots_; ++s) {
    if (slot_app_[s] >= 0 && !present[s]) {
      slot_of_.erase(slot_app_[s]);
      slot_app_[s] = -1;
      resched_obs().unseats.inc();
    }
  }
  for (const ActiveLoad& load : loads) {
    if (slot_of_.count(load.id)) continue;
    resched_obs().seats.inc();
    int slot = -1;
    for (int s = slot_base_[load.cluster];
         s < slot_base_[load.cluster] + slots_per_cluster_[load.cluster]; ++s) {
      if (slot_app_[s] < 0) {
        slot = s;
        break;
      }
    }
    DLS_ASSERT(slot >= 0);
    slot_app_[slot] = load.id;
    slot_of_[load.id] = slot;
  }

  std::vector<double> weights(total_slots_, 0.0);
  for (const ActiveLoad& load : loads) weights[slot_of_[load.id]] = load.weight;

  if (!reduced_cache_) {
    // New slot universe: re-derive the slot problem, sharing the route
    // table when one exists (only a topology reset drops it).
    core::LoadSet slots;
    slots.loads.reserve(total_slots_);
    for (int c = 0; c < n; ++c)
      for (int s = 0; s < slots_per_cluster_[c]; ++s) {
        core::LoadSpec spec;
        spec.source = c;
        spec.weight = weights[slot_base_[c] + s];
        slots.loads.push_back(std::move(spec));
      }
    if (problem_) {
      problem_ = problem_->with_loads(std::move(slots));
    } else {
      problem_.emplace(*plat_, std::move(slots), core::Objective::Sum);
    }
  } else {
    problem_ = problem_->with_load_weights(weights);
  }
  if (!reduced_cache_) {
    reduced_cache_ = problem_->build_reduced();
  } else {
    problem_->update_reduced_payoffs(*reduced_cache_);
  }

  if (options_.warm == WarmPolicy::Never) warm_state_.invalidate();
  core::LpWarmStart warm;
  warm.state = &warm_state_;
  warm.arena = &arena_;
  warm.reduced = &*reduced_cache_;

  const core::MultiLoadSolution sol =
      core::solve_loads(*problem_, options_.solve, &warm);
  require(sol.status == lp::SolveStatus::Optimal,
          "MultiLoadRescheduler: shared LP solve failed");

  MultiReschedule out;
  out.rate.resize(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i)
    out.rate[i] = sol.throughput[slot_of_[loads[i].id]];
  out.objective = sol.objective;
  out.warm = sol.warm;
  out.repaired = sol.repaired;
  out.lp_iterations = sol.lp_iterations;
  out.lp_solves = sol.lp_solves;
  return out;
}

MultiReschedule MultiLoadRescheduler::solve_maxmin(
    const std::vector<ActiveLoad>& loads) {
  core::LoadSet set;
  set.loads.reserve(loads.size());
  for (const ActiveLoad& load : loads) {
    core::LoadSpec spec;
    spec.source = load.cluster;
    spec.weight = load.weight;
    set.loads.push_back(std::move(spec));
  }
  maxmin_problem_ = maxmin_problem_
                        ? maxmin_problem_->with_loads(std::move(set))
                        : core::SteadyStateProblem(*plat_, std::move(set),
                                                   core::Objective::MaxMin);

  if (options_.warm == WarmPolicy::Never) warm_state_.invalidate();
  core::LpWarmStart warm;
  warm.state = &warm_state_;
  warm.arena = &arena_;

  const core::MultiLoadSolution sol =
      core::solve_loads(*maxmin_problem_, options_.solve, &warm);
  require(sol.status == lp::SolveStatus::Optimal,
          "MultiLoadRescheduler: max-min solve failed");

  MultiReschedule out;
  out.rate = sol.throughput;
  out.objective = sol.objective;
  out.warm = sol.warm;
  out.repaired = sol.repaired;
  out.lp_iterations = sol.lp_iterations;
  out.lp_solves = sol.lp_solves;
  return out;
}

MultiReschedule MultiLoadRescheduler::reschedule(
    const std::vector<ActiveLoad>& loads) {
  require(!loads.empty(), "MultiLoadRescheduler: no active loads");
  const int n = plat_->num_clusters();
  std::vector<int> ids;
  ids.reserve(loads.size());
  for (const ActiveLoad& load : loads) {
    require(load.cluster >= 0 && load.cluster < n,
            "MultiLoadRescheduler: load cluster out of range");
    require(load.weight > 0.0, "MultiLoadRescheduler: load weight must be > 0");
    ids.push_back(load.id);
  }
  std::sort(ids.begin(), ids.end());
  require(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
          "MultiLoadRescheduler: duplicate load id");

  WallTimer timer;
  MultiReschedule out =
      options_.solve.objective == core::MultiObjective::MaxMin
          ? solve_maxmin(loads)
          : solve_shared(loads);
  out.seconds = timer.seconds();

  if (out.warm) {
    ++stats_.warm_solves;
    stats_.repaired_solves += out.repaired;
    stats_.warm_seconds += out.seconds;
    stats_.warm_iterations += out.lp_iterations;
    (out.repaired ? resched_obs().multi_repaired : resched_obs().multi_warm)
        .inc();
  } else {
    ++stats_.cold_solves;
    stats_.cold_seconds += out.seconds;
    stats_.cold_iterations += out.lp_iterations;
    resched_obs().multi_cold.inc();
  }
  resched_obs().active_loads.set(static_cast<double>(loads.size()));
  return out;
}

}  // namespace dls::online
