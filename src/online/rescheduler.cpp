#include "online/rescheduler.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "support/timer.hpp"

namespace dls::online {

namespace {

// Rescheduler-level series: solves by (mode, start kind), the slot
// universe's churn (seat/unseat patches, geometric growth), and queue
// depth. The lp layer separately counts the underlying simplex work.
struct ReschedObs {
  /// Indexed by mode: 0 = single, 1 = multi.
  obs::Counter cold[2], warm[2], repaired[2];
  obs::Counter seats, unseats, slot_grow;
  obs::Gauge slots, active_loads;
  ReschedObs() {
    auto& reg = obs::registry();
    const std::string solves = "dls_resched_solves_total";
    const std::string help = "Rescheduler solves by mode and start kind";
    const char* modes[2] = {"single", "multi"};
    for (int m = 0; m < 2; ++m) {
      const std::string mode = std::string("mode=\"") + modes[m] + "\",start=";
      cold[m] = reg.counter(solves, help, mode + "\"cold\"");
      warm[m] = reg.counter(solves, help, mode + "\"warm\"");
      repaired[m] = reg.counter(solves, help, mode + "\"repaired\"");
    }
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

MultiLoadRescheduler::MultiLoadRescheduler(const platform::Platform& plat,
                                           MultiReschedulerOptions options)
    : plat_(&plat), options_(options) {
  // Per-event solves never read shadow prices; skip their extraction.
  options_.solve.lp.compute_duals = false;
}

namespace {
MultiReschedulerOptions single_load_posture(const ReschedulerOptions& options) {
  MultiReschedulerOptions out;
  out.warm = options.warm;
  return out;
}
}  // namespace

MultiLoadRescheduler::MultiLoadRescheduler(const platform::Platform& plat,
                                           const ReschedulerOptions& options)
    : MultiLoadRescheduler(plat, single_load_posture(options)) {
  single_ = options;
}

const core::SteadyStateProblem& MultiLoadRescheduler::problem() const {
  require(problem_.has_value(), "MultiLoadRescheduler: no problem solved yet");
  return *problem_;
}

const core::Allocation& MultiLoadRescheduler::allocation() const {
  require(allocation_.has_value(),
          "MultiLoadRescheduler: no single-load allocation to read");
  return *allocation_;
}

bool MultiLoadRescheduler::caches_reduced() const {
  // A Sum model keeps its rows across events, so one cached reduced
  // model is patched per event; a MaxMin solve builds its own (one
  // fairness row per active load), PropFair re-patches objective
  // coefficients on a private model, and greedy solves no LP.
  if (single_)
    return single_->method != Method::Greedy && single_->objective == core::Objective::Sum;
  return options_.solve.objective == core::MultiObjective::WeightedSum;
}

void MultiLoadRescheduler::reset() {
  warm_state_.invalidate();
  slot_of_.clear();
  std::fill(slot_app_.begin(), slot_app_.end(), -1);
  allocation_.reset();
}

void MultiLoadRescheduler::platform_capacity_changed() {
  // The cached problem bakes per-route pbw, and the reduced model bakes
  // capacities into rhs and max-connect coefficients: patch both in
  // place (bit-identical to a rebuild). The capsule survives for a whole
  // (rhs-only) or repaired (re-priced) warm start. The greedy seed may
  // violate the new capacities; drop it.
  if (problem_) {
    const bool pbw_changed = problem_->refresh_route_bandwidths();
    if (reduced_cache_) problem_->update_reduced_capacities(*reduced_cache_, pbw_changed);
  }
  allocation_.reset();
}

void MultiLoadRescheduler::platform_topology_changed() {
  problem_.reset();
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
  // Geometric growth: doubling amortizes model rebuilds to
  // O(log max-concurrency) per cluster over a whole run.
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
  // The model gains columns: seat() re-derives the slot problem with
  // with_loads (keeping its route table) and either carries the capsule's
  // statuses over to it (carry_basis) or drops the capsule; the reduced
  // model is rebuilt.
  reduced_cache_.reset();
  resched_obs().slot_grow.inc();
  resched_obs().slots.set(static_cast<double>(total_slots_));
}

void MultiLoadRescheduler::seat(const std::vector<ActiveLoad>& loads) {
  const int n = plat_->num_clusters();
  needed_.assign(n, 0);
  for (const ActiveLoad& load : loads) ++needed_[load.cluster];
  if (single_) {
    for (int c = 0; c < n; ++c)
      require(needed_[c] <= 1,
              "MultiLoadRescheduler: single-load mode holds at most one load "
              "per cluster");
  }

  bool grown = static_cast<int>(slots_per_cluster_.size()) != n;
  for (int c = 0; !grown && c < n; ++c) grown = needed_[c] > slots_per_cluster_[c];
  // A growth over a warm capsule (which only a solve over a seated slot
  // universe leaves) hands its basis to the grown LP; the old layout says
  // which load held each old slot. Anything else starts cold.
  const bool carry =
      grown && warm_state_.valid && options_.warm != WarmPolicy::Never;
  std::vector<int> old_app, old_base;
  if (carry) {
    old_app = slot_app_;
    old_base = slot_base_;
  } else if (grown) {
    warm_state_.invalidate();
  }
  if (grown) rebuild_slots(needed_);

  // Release slots of departed loads, then seat new arrivals on the
  // lowest idle slot of their cluster (deterministic in call order).
  present_.assign(slot_app_.size(), 0);
  for (const ActiveLoad& load : loads) {
    auto it = slot_of_.find(load.id);
    if (it != slot_of_.end()) present_[it->second] = 1;
  }
  for (int s = 0; s < total_slots_; ++s) {
    if (slot_app_[s] >= 0 && !present_[s]) {
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

  weights_.assign(total_slots_, 0.0);
  for (const ActiveLoad& load : loads) weights_[slot_of_[load.id]] = load.weight;

  // A new slot universe (the problem's load count no longer matches)
  // re-derives the slot problem, sharing the route table when one
  // exists (only a topology reset drops it). With one slot per cluster
  // the slot set is the canonical one.
  if (!problem_ || problem_->num_loads() != total_slots_) {
    core::LoadSet slots;
    slots.loads.reserve(total_slots_);
    for (int c = 0; c < n; ++c)
      for (int s = 0; s < slots_per_cluster_[c]; ++s) {
        core::LoadSpec spec;
        spec.source = c;
        spec.weight = weights_[slot_base_[c] + s];
        slots.loads.push_back(std::move(spec));
      }
    if (problem_) {
      core::SteadyStateProblem grown_problem = problem_->with_loads(std::move(slots));
      if (carry) carry_basis(grown_problem, old_app, old_base);
      problem_ = std::move(grown_problem);
    } else {
      problem_.emplace(*plat_, std::move(slots),
                       single_ ? single_->objective : core::Objective::Sum);
    }
  } else {
    problem_->set_load_weights(weights_);
  }
}

void MultiLoadRescheduler::carry_basis(const core::SteadyStateProblem& grown,
                                       const std::vector<int>& old_app,
                                       const std::vector<int>& old_base) {
  const core::SteadyStateProblem& old = *problem_;
  const auto& old_lroutes = old.load_routes();
  lp::Basis& basis = warm_state_.basis;
  DLS_ASSERT(basis.variables.size() == old_lroutes.size());
  // Old slot -> new slot of the same cluster. A slot whose load is still
  // active follows it to the seat it was just given; the others (idle, or
  // released by a departure whose alpha may still be basic) take the
  // cluster's remaining new slots in ascending order.
  const int n = plat_->num_clusters();
  const int old_total = static_cast<int>(old_app.size());
  std::vector<int> slot_map(old_app.size(), -1);
  std::vector<char> taken(static_cast<std::size_t>(total_slots_), 0);
  for (int c = 0; c < n; ++c) {
    const int begin = old_base[c];
    const int end = c + 1 < n ? old_base[c + 1] : old_total;
    const int new_begin = slot_base_[c];
    const int new_end = new_begin + slots_per_cluster_[c];
    for (int s = begin; s < end; ++s) {
      if (old_app[s] < 0) continue;
      const auto it = slot_of_.find(old_app[s]);
      if (it == slot_of_.end() || it->second < new_begin || it->second >= new_end)
        continue;
      slot_map[s] = it->second;
      taken[it->second] = 1;
    }
    int next = new_begin;
    for (int s = begin; s < end; ++s) {
      if (slot_map[s] >= 0) continue;
      while (taken[next]) ++next;
      DLS_ASSERT(next < new_end);
      slot_map[s] = next++;
    }
  }
  // Growth only adds columns: every row (cluster speed and gateway, link
  // max-connect) is there before and after, so the slack statuses stay,
  // and each alpha status moves to its (new slot, destination) column.
  // New idle slots rest at their pinned zero bound.
  std::vector<lp::BasisStatus> variables(grown.load_routes().size(),
                                         lp::BasisStatus::AtLower);
  for (std::size_t r = 0; r < old_lroutes.size(); ++r) {
    const int to = grown.load_route_id(slot_map[old_lroutes[r].load],
                                       old.routes()[old_lroutes[r].route].l);
    DLS_ASSERT(to >= 0);
    variables[to] = basis.variables[r];
  }
  basis.variables = std::move(variables);
  // A statuses-only capsule under a stale fingerprint: the simplex
  // refactorizes the basic set against the grown matrix (basis repair,
  // lp::WarmKind::Basis), and its composite bound phase 1 absorbs the
  // departed loads' alphas.
  warm_state_.basic_vars.clear();
  warm_state_.lu.clear();
}

MultiReschedule MultiLoadRescheduler::solve_single(
    const std::vector<ActiveLoad>& loads, core::LpWarmStart& warm) {
  const ReschedulerOptions& single = *single_;
  const core::SteadyStateProblem& problem = *problem_;
  MultiReschedule out;
  if (single.method == Method::Greedy) {
    // Auto keeps greedy cold: it solves no LP, so there is no phase-1
    // work to skip, and the seeded variant changes the objective.
    const bool seed = options_.warm == WarmPolicy::Always && allocation_.has_value();
    core::HeuristicResult r =
        seed ? core::run_greedy_warm(problem, *allocation_, single.greedy)
             : core::run_greedy(problem, single.greedy);
    require(r.status == lp::SolveStatus::Optimal, "reschedule: greedy failed");
    allocation_ = std::move(r.allocation);
    out.objective = r.objective;
    out.warm = seed;
  } else {
    const core::Relaxation relaxation =
        core::solve_relaxation(problem, options_.solve.lp, &warm);
    if (relaxation.solution.status != lp::SolveStatus::Optimal)
      throw Error(std::string("reschedule: method ") + to_string(single.method) +
                  " failed");
    out.warm = warm.kind != lp::WarmKind::Cold;
    out.repaired = warm.kind == lp::WarmKind::Basis;
    out.lp_iterations = relaxation.solution.iterations;
    out.lp_solves = 1;
    if (single.method == Method::LpBound) {
      core::LpBoundResult r = core::lp_upper_bound(problem, relaxation);
      allocation_ = std::move(r.allocation);
      out.objective = r.objective;
    } else {
      core::HeuristicResult r =
          single.method == Method::Lpr
              ? core::run_lpr(problem, relaxation)
              : core::run_lprg(problem, relaxation, single.greedy);
      allocation_ = std::move(r.allocation);
      out.objective = r.objective;
    }
  }
  out.rate.resize(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i)
    out.rate[i] = allocation_->total_alpha(loads[i].cluster);
  return out;
}

MultiReschedule MultiLoadRescheduler::solve_multi(
    const std::vector<ActiveLoad>& loads, core::LpWarmStart& warm) {
  const core::MultiLoadSolution sol =
      core::solve_loads(*problem_, options_.solve, &warm);
  require(sol.status == lp::SolveStatus::Optimal,
          "MultiLoadRescheduler: shared LP solve failed");
  // A MaxMin problem's loads are the active set in call order; any
  // other problem's are the slots.
  const bool active_set = problem_->objective() == core::Objective::MaxMin;
  MultiReschedule out;
  out.rate.resize(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i)
    out.rate[i] = sol.throughput[active_set ? i : slot_of_[loads[i].id]];
  out.objective = sol.objective;
  out.warm = sol.warm;
  out.repaired = sol.repaired;
  out.lp_iterations = sol.lp_iterations;
  out.lp_solves = sol.lp_solves;
  return out;
}

void MultiLoadRescheduler::derive_active_problem(
    const std::vector<ActiveLoad>& loads) {
  core::LoadSet set;
  set.loads.reserve(loads.size());
  for (const ActiveLoad& load : loads) {
    core::LoadSpec spec;
    spec.source = load.cluster;
    spec.weight = load.weight;
    set.loads.push_back(std::move(spec));
  }
  problem_ = problem_ ? problem_->with_loads(std::move(set))
                      : core::SteadyStateProblem(*plat_, std::move(set),
                                                 core::Objective::MaxMin);
}

MultiReschedule MultiLoadRescheduler::reschedule(
    const std::vector<ActiveLoad>& loads) {
  require(!loads.empty(), "MultiLoadRescheduler: no active loads");
  const int n = plat_->num_clusters();
  ids_.clear();
  for (const ActiveLoad& load : loads) {
    require(load.cluster >= 0 && load.cluster < n,
            "MultiLoadRescheduler: load cluster out of range");
    require(load.weight > 0.0, "MultiLoadRescheduler: load weight must be > 0");
    ids_.push_back(load.id);
  }
  std::sort(ids_.begin(), ids_.end());
  require(std::adjacent_find(ids_.begin(), ids_.end()) == ids_.end(),
          "MultiLoadRescheduler: duplicate load id");

  WallTimer timer;
  // Multi-load MaxMin spans the active set alone; every other shape is
  // the slot problem.
  if (!single_ && options_.solve.objective == core::MultiObjective::MaxMin) {
    derive_active_problem(loads);
  } else {
    seat(loads);
  }
  if (caches_reduced()) {
    if (!reduced_cache_) {
      reduced_cache_ = problem_->build_reduced();
    } else {
      problem_->update_reduced_payoffs(*reduced_cache_);
    }
  }
  if (options_.warm == WarmPolicy::Never) warm_state_.invalidate();
  core::LpWarmStart warm;
  warm.state = &warm_state_;
  warm.arena = &arena_;
  if (reduced_cache_) warm.reduced = &*reduced_cache_;
  MultiReschedule out = single_ ? solve_single(loads, warm) : solve_multi(loads, warm);
  out.seconds = timer.seconds();

  ReschedObs& obs = resched_obs();
  const int mode = single_ ? 0 : 1;
  if (out.warm) {
    ++stats_.warm_solves;
    stats_.repaired_solves += out.repaired;
    stats_.warm_seconds += out.seconds;
    stats_.warm_iterations += out.lp_iterations;
    (out.repaired ? obs.repaired : obs.warm)[mode].inc();
  } else {
    ++stats_.cold_solves;
    stats_.cold_seconds += out.seconds;
    stats_.cold_iterations += out.lp_iterations;
    obs.cold[mode].inc();
  }
  obs.active_loads.set(static_cast<double>(loads.size()));
  return out;
}

}  // namespace dls::online
