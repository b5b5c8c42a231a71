#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>

namespace dls::sim {

SimEngine::SimEngine(std::vector<double> capacities)
    : capacities_(std::move(capacities)) {
  for (double c : capacities_)
    require(c > 0.0 && std::isfinite(c), "SimEngine: bad resource capacity");
  res_live_.resize(capacities_.size());
  res_mark_.assign(capacities_.size(), 0);
  res_local_.assign(capacities_.size(), -1);
}

void SimEngine::set_capacity(int resource, double value) {
  require(resource >= 0 && resource < static_cast<int>(capacities_.size()),
          "set_capacity: resource out of range");
  require(value > 0.0 && std::isfinite(value),
          "set_capacity: bad resource capacity");
  require(num_live_ == 0, "set_capacity: a period is in progress");
  capacities_[resource] = value;
}

void SimEngine::begin_period(const std::vector<EngineItem>& items) {
  const int n = static_cast<int>(items.size());
  const int num_resources = static_cast<int>(capacities_.size());
  items_ = items;
  ents_.assign(n, Entity{});
  for (auto& live : res_live_) live.clear();
  calendar_ = {};
  now_ = 0.0;
  stats_ = PeriodStats{};
  num_live_ = 0;
  // epoch_ keeps counting across periods so stale marks never collide.
  item_mark_.assign(n, 0);

  for (int i = 0; i < n; ++i) {
    const EngineItem& item = items_[i];
    require(item.cap >= 0.0, "SimEngine: negative item cap");
    require(item.weight > 0.0 && std::isfinite(item.weight),
            "SimEngine: item weight must be positive");
    for (int r : item.resources)
      require(r >= 0 && r < num_resources, "SimEngine: resource out of range");
    Entity& e = ents_[i];
    e.remaining = item.size;
    if (item.size <= 0.0) continue;  // completes immediately, no event
    require(item.cap > 0.0,
            "SimEngine: live item with zero cap can never progress");
    require(!item.resources.empty() || std::isfinite(item.cap),
            "SimEngine: live item with no resource and no cap is unbounded");
    e.alive = true;
    ++num_live_;
    for (int r : item.resources) res_live_[r].push_back(i);
  }
  if (num_live_ == 0) return;

  solve_every_live();
  for (int i = 0; i < n; ++i)
    if (ents_[i].alive) push_event(i);
}

void SimEngine::solve_every_live() {
  scratch_problem_.capacity = capacities_;
  scratch_problem_.entities.clear();
  comp_items_.clear();
  for (int i = 0; i < static_cast<int>(items_.size()); ++i) {
    if (!ents_[i].alive) continue;
    comp_items_.push_back(i);
    scratch_problem_.entities.push_back(
        {items_[i].resources, items_[i].cap, items_[i].weight});
  }
  const std::vector<double> rates = max_min_fair_rates(scratch_problem_);
  ++stats_.full_solves;
  for (std::size_t j = 0; j < comp_items_.size(); ++j)
    ents_[comp_items_[j]].rate = rates[j];
}

void SimEngine::push_event(int item) {
  Entity& e = ents_[item];
  DLS_ASSERT(e.rate > 0.0);  // max-min gives every live item positive rate
  calendar_.push({e.last_sync + e.remaining / e.rate, item, e.version});
}

void SimEngine::collect_component(int seed_item) {
  // Epoch-stamped BFS over the bipartite item/resource graph; only live
  // entities are expanded. comp_items_ excludes seed_item itself.
  ++epoch_;
  comp_items_.clear();
  comp_resources_.clear();
  item_mark_[seed_item] = epoch_;
  std::size_t res_head = 0;
  for (int r : items_[seed_item].resources) {
    if (res_mark_[r] == epoch_) continue;
    res_mark_[r] = epoch_;
    comp_resources_.push_back(r);
  }
  while (res_head < comp_resources_.size()) {
    const int r = comp_resources_[res_head++];
    for (int i : res_live_[r]) {
      if (item_mark_[i] == epoch_) continue;
      item_mark_[i] = epoch_;
      comp_items_.push_back(i);
      for (int r2 : items_[i].resources) {
        if (res_mark_[r2] == epoch_) continue;
        res_mark_[r2] = epoch_;
        comp_resources_.push_back(r2);
      }
    }
  }
}

std::optional<double> SimEngine::step() {
  // Pop the next valid event; skip entries invalidated by rate changes.
  int completed = -1;
  while (!calendar_.empty()) {
    const Event ev = calendar_.top();
    calendar_.pop();
    Entity& e = ents_[ev.item];
    if (!e.alive || e.version != ev.version) continue;
    completed = ev.item;
    now_ = std::max(now_, ev.time);
    break;
  }
  if (completed == -1) {
    DLS_ASSERT(num_live_ == 0);  // no live work may be stranded eventless
    return std::nullopt;
  }

  Entity& done = ents_[completed];
  done.remaining = 0.0;
  done.alive = false;
  done.last_sync = now_;
  --num_live_;
  ++stats_.events;

  // Delta-update the persistent per-resource tables: drop the completed
  // entity from its resources' live lists.
  collect_component(completed);
  for (int r : items_[completed].resources) {
    auto& live = res_live_[r];
    for (std::size_t j = 0; j < live.size(); ++j) {
      if (live[j] == completed) {
        live[j] = live.back();
        live.pop_back();
        break;
      }
    }
  }
  if (comp_items_.empty() || num_live_ == 0) return now_;

  // Freed capacity can only *raise* rates (max-min is monotone under
  // entity removal); if every affected entity already sits at its
  // individual cap, nothing can change — skip the solve.
  bool all_capped = true;
  for (int i : comp_items_) {
    const Entity& e = ents_[i];
    if (!(std::isfinite(items_[i].cap) &&
          e.rate >= items_[i].cap * (1.0 - 1e-12))) {
      all_capped = false;
      break;
    }
  }
  if (all_capped) return now_;

  // Re-run progressive filling over the dirty component only. Entities
  // outside it share no resource with it, so their rates — and their
  // calendar entries — stay valid untouched.
  scratch_problem_.capacity.clear();
  for (std::size_t j = 0; j < comp_resources_.size(); ++j) {
    res_local_[comp_resources_[j]] = static_cast<int>(j);
    scratch_problem_.capacity.push_back(capacities_[comp_resources_[j]]);
  }
  scratch_problem_.entities.clear();
  for (int i : comp_items_) {
    FairShareProblem::Entity ent;
    ent.cap = items_[i].cap;
    ent.weight = items_[i].weight;
    ent.resources.reserve(items_[i].resources.size());
    for (int r : items_[i].resources) ent.resources.push_back(res_local_[r]);
    scratch_problem_.entities.push_back(std::move(ent));
  }
  const std::vector<double> rates = max_min_fair_rates(scratch_problem_);
  if (static_cast<int>(comp_items_.size()) == num_live_) {
    ++stats_.full_solves;  // the dirty set happened to span everyone
  } else {
    ++stats_.partial_solves;
  }

  for (std::size_t j = 0; j < comp_items_.size(); ++j) {
    Entity& e = ents_[comp_items_[j]];
    // Sync remaining work to `now_` before the rate switches.
    e.remaining = std::max(0.0, e.remaining - e.rate * (now_ - e.last_sync));
    e.last_sync = now_;
    if (rates[j] != e.rate) {
      e.rate = rates[j];
      ++e.version;  // lazily invalidates the stale calendar entry
      push_event(comp_items_[j]);
    }
  }
  return now_;
}

PeriodStats SimEngine::finish_period() {
  while (step().has_value()) {
  }
  stats_.duration = now_;
  return stats_;
}

PeriodStats SimEngine::run_period(const std::vector<EngineItem>& items) {
  begin_period(items);
  return finish_period();
}

}  // namespace dls::sim
