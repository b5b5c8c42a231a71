#include "campaign/exec.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "core/multi_solve.hpp"
#include "dynamics/events.hpp"
#include "exp/experiment.hpp"
#include "online/engine.hpp"
#include "platform/serialization.hpp"
#include "support/error.hpp"

namespace dls::campaign {

// ---- shared artifacts -------------------------------------------------------

std::shared_ptr<const platform::Platform> ArtifactCache::platform_for(int cell,
                                                                      int rep) {
  const PlatformSource& src = spec_->platforms[cell];
  // A file platform is replication-independent: one entry.
  const int key_rep = src.kind == PlatformSource::Kind::File ? 0 : rep;
  const std::pair<int, int> key{cell, key_rep};
  {
    std::scoped_lock lock(mutex_);
    const auto it = platforms_.find(key);
    if (it != platforms_.end()) {
      ++hits_;
      return it->second;
    }
  }
  auto built =
      std::make_shared<const platform::Platform>(build(src, cell, key_rep));
  std::scoped_lock lock(mutex_);
  ++builds_;
  // Bounded insert, no eviction: evicting early keys would throw away
  // exactly the platforms the next scenario/objective group revisits
  // first. Campaigns larger than the cap rebuild the overflow
  // deterministically per use instead.
  if (platforms_.size() >= kMaxEntries) return built;
  const auto [it, inserted] = platforms_.emplace(key, std::move(built));
  return it->second;
}

std::shared_ptr<const online::Workload> ArtifactCache::workload_file(
    const std::string& path) {
  std::scoped_lock lock(mutex_);
  auto& slot = workloads_[path];
  if (!slot) {
    std::ifstream in(path);
    require(static_cast<bool>(in),
            "campaign: cannot open workload file '" + path + "'");
    slot = std::make_shared<const online::Workload>(online::read_workload(in));
  }
  return slot;
}

std::shared_ptr<const dynamics::EventTrace> ArtifactCache::events_file(
    const std::string& path) {
  std::scoped_lock lock(mutex_);
  auto& slot = events_[path];
  if (!slot) {
    std::ifstream in(path);
    require(static_cast<bool>(in),
            "campaign: cannot open events file '" + path + "'");
    slot = std::make_shared<const dynamics::EventTrace>(dynamics::read_events(in));
  }
  return slot;
}

platform::Platform ArtifactCache::build(const PlatformSource& src, int cell,
                                        int rep) const {
  switch (src.kind) {
    case PlatformSource::Kind::File: {
      std::ifstream in(src.path);
      require(static_cast<bool>(in),
              "campaign: cannot open platform file '" + src.path + "'");
      return platform::read_platform(in);
    }
    case PlatformSource::Kind::Generate: {
      Rng rng(platform_stream_seed(*spec_, cell, rep));
      return generate_platform(src.params, rng);
    }
    case PlatformSource::Kind::Grid: {
      Rng rng(platform_stream_seed(*spec_, cell, rep));
      const platform::Table1Grid grid;
      const platform::GeneratorParams params =
          exp::sample_grid_params(grid, src.grid_clusters, rng);
      return generate_platform(params, rng);
    }
  }
  throw Error("campaign: unknown platform kind");
}

// ---- case kernels -----------------------------------------------------------

namespace {

double qnan() { return std::numeric_limits<double>::quiet_NaN(); }

double ratio_or_nan(double method_value, double lp_value) {
  if (!(lp_value > 1e-12) || std::isnan(method_value)) return qnan();
  return method_value / lp_value;
}

online::Method to_online(Method m) {
  switch (m) {
    case Method::G: return online::Method::Greedy;
    case Method::Lpr: return online::Method::Lpr;
    case Method::Lprg: return online::Method::Lprg;
    case Method::Lp: return online::Method::LpBound;
    case Method::Lprr: break;
  }
  throw Error("campaign: method lprr has no online rescheduler");
}

std::vector<double> run_offline_case(const ScenarioSpec& spec, const CaseDef& def,
                                     ArtifactCache& cache, lp::BatchSolver& lps) {
  const auto plat = cache.platform_for(def.cell, def.rep);
  exp::CaseConfig config;
  config.objective = spec.objectives[def.objective];
  config.payoff_spread = spec.payoff_spread;
  config.greedy.local_exhaust = spec.exhaust[def.exhaust];
  config.with_lpr = has_method(spec, Method::Lpr);
  config.with_lprg = has_method(spec, Method::Lprg);
  config.with_lprr = has_method(spec, Method::Lprr);
  config.seed = payoff_stream_seed(spec, def.cell, def.rep);
  const exp::CaseResult r = exp::run_case(config, *plat, lps);

  // A failed case (any solve non-optimal) contributes only ok=0: its
  // partially-filled method values are unusable per the CaseResult
  // contract and must not leak into the aggregates.
  std::vector<double> values;
  values.push_back(r.ok ? 1.0 : 0.0);
  const auto guarded = [&](double v) { return r.ok ? v : qnan(); };
  if (has_method(spec, Method::G)) values.push_back(guarded(ratio_or_nan(r.g, r.lp)));
  if (has_method(spec, Method::Lpr))
    values.push_back(guarded(ratio_or_nan(r.lpr, r.lp)));
  if (has_method(spec, Method::Lprg))
    values.push_back(guarded(ratio_or_nan(r.lprg, r.lp)));
  if (has_method(spec, Method::Lprr))
    values.push_back(guarded(ratio_or_nan(r.lprr, r.lp)));
  if (has_method(spec, Method::G) && has_method(spec, Method::Lprg))
    values.push_back(
        guarded(r.g > 1e-9 && !std::isnan(r.lprg) ? r.lprg / r.g : qnan()));
  values.push_back(guarded(std::isnan(r.lp) ? qnan() : r.lp));
  return values;
}

/// One `loads` cell case: sample N loads from the loads seed stream and
/// solve the joint LP. Every metric is deterministic (no wall times) so
/// loads reports stay bit-identical for any --jobs/--shard split.
std::vector<double> run_loads_case(const ScenarioSpec& spec, const CaseDef& def,
                                   ArtifactCache& cache) {
  const WorkloadSource& scen = spec.scenarios[def.scen];
  const auto plat = cache.platform_for(def.cell, def.rep);
  const int k = plat->num_clusters();

  // Scenario-independent stream (common random numbers): loads cells
  // that differ only in objective solve literally the same load set.
  Rng rng(loads_stream_seed(spec, def.cell, def.rep));
  core::LoadSet set;
  set.loads.reserve(scen.load_count);
  const int hot = std::max(1, k / 4);  // hotspot: sources in the first K/4
  for (int j = 0; j < scen.load_count; ++j) {
    core::LoadSpec load;
    load.source = static_cast<int>(
        scen.load_mix == "hotspot" ? rng.uniform_int(0, hot - 1)
                                   : rng.uniform_int(0, k - 1));
    load.weight = 1.0 + scen.weight_spread * rng.uniform(-1.0, 1.0);
    load.data_ratio = 1.0 + scen.ratio_spread * rng.uniform(-1.0, 1.0);
    if (scen.cap_factor > 0.0)
      load.cap = scen.cap_factor * plat->cluster(load.source).speed;
    set.loads.push_back(std::move(load));
  }

  core::MultiLoadSolveOptions options;
  options.objective = scen.multi_objective;
  const core::MultiLoadSolution sol = core::solve_loads(*plat, set, options);
  if (sol.status != lp::SolveStatus::Optimal)
    return {0.0, qnan(), qnan(), qnan(), qnan(), qnan(), qnan()};

  double sum_throughput = 0.0;
  double min_weighted = std::numeric_limits<double>::infinity();
  for (int j = 0; j < set.size(); ++j) {
    sum_throughput += sol.throughput[j];
    min_weighted =
        std::min(min_weighted, set.loads[j].weight * sol.throughput[j]);
  }
  return {1.0,
          sol.objective,
          sum_throughput,
          min_weighted,
          online::jain_index(sol.throughput),
          static_cast<double>(sol.lp_solves),
          static_cast<double>(sol.lp_iterations)};
}

std::vector<double> run_stream_case(const ScenarioSpec& spec, const CaseDef& def,
                                    ArtifactCache& cache) {
  const WorkloadSource& scen = spec.scenarios[def.scen];
  const auto plat = cache.platform_for(def.cell, def.rep);
  const int k = plat->num_clusters();

  // Trace workloads stay shared (no per-case copy of the arrivals
  // vector); generated kinds materialize into the local buffer.
  std::shared_ptr<const online::Workload> shared_workload;
  online::Workload generated;
  switch (scen.kind) {
    case WorkloadSource::Kind::Trace:
      shared_workload = cache.workload_file(scen.path);
      break;
    // The workload stream deliberately does NOT depend on the scenario
    // index: scenarios that share workload parameters (the static vs
    // dynamic pairing of the degradation reports) replay literally the
    // same arrivals, and scenarios with different parameters share
    // common random numbers.
    case WorkloadSource::Kind::Batch: {
      Rng rng(workload_stream_seed(spec, def.rep));
      generated = online::batch_workload(scen.poisson, k, rng);
      break;
    }
    case WorkloadSource::Kind::Poisson: {
      Rng rng(workload_stream_seed(spec, def.rep));
      generated = online::poisson_workload(scen.poisson, k, rng);
      break;
    }
    case WorkloadSource::Kind::OnOff: {
      Rng rng(workload_stream_seed(spec, def.rep));
      generated = online::onoff_workload(scen.onoff, k, rng);
      break;
    }
    case WorkloadSource::Kind::None:
    case WorkloadSource::Kind::Loads:
      throw Error("campaign: non-stream scenario reached the stream kernel");
  }
  const online::Workload& workload = shared_workload ? *shared_workload : generated;

  online::OnlineOptions options;
  options.sched.method = to_online(spec.methods[def.method]);
  options.sched.objective = spec.objectives[def.objective];
  options.sched.warm = spec.warm[def.warm];
  options.sched.greedy.local_exhaust = spec.exhaust.front();
  options.rate_model = spec.rate_model;
  options.sim_policy = spec.sim_policy;
  options.sim_window_units = spec.sim_window_units;

  const online::OnlineEngine engine(*plat, options);
  online::OnlineReport report;
  switch (scen.dyn) {
    case WorkloadSource::DynKind::None:
      report = engine.run(workload);
      break;
    case WorkloadSource::DynKind::Trace:
      report = engine.run(workload, *cache.events_file(scen.events_path));
      break;
    case WorkloadSource::DynKind::Scenario: {
      const double last_arrival =
          workload.arrivals.empty() ? 0.0 : workload.arrivals.back().time;
      const double horizon =
          scen.horizon > 0.0 ? scen.horizon : 2.0 * last_arrival + 100.0;
      Rng rng(events_stream_seed(spec, def.cell, def.scen, def.rep));
      const dynamics::EventTrace trace =
          dynamics::scenario_trace(scen.event_rate, scen.severity, horizon,
                                   *plat, rng);
      report = engine.run(workload, trace);
      break;
    }
  }

  const auto acc_mean = [](const Accumulator& acc) {
    return acc.count() == 0 ? qnan() : acc.mean();
  };
  // Same empty-aggregate honesty for the time-weighted series: a replay
  // that accumulated no weight has no utilization/fairness to report.
  const auto tw_mean = [](const online::TimeWeighted& tw) {
    return tw.total_weight() > 0.0 ? tw.mean() : qnan();
  };
  return {1.0,
          static_cast<double>(report.completed),
          static_cast<double>(report.aborted),
          static_cast<double>(report.rejected),
          static_cast<double>(report.queued_arrivals),
          static_cast<double>(report.reschedules),
          static_cast<double>(report.warm_solves),
          static_cast<double>(report.repaired_solves),
          static_cast<double>(report.cold_solves),
          static_cast<double>(report.platform_events),
          report.makespan,
          report.total_work,
          acc_mean(report.metrics.response),
          acc_mean(report.metrics.wait),
          acc_mean(report.metrics.slowdown),
          tw_mean(report.metrics.utilization),
          tw_mean(report.metrics.fairness),
          static_cast<double>(report.peak_active),
          static_cast<double>(report.peak_queued)};
}

}  // namespace

std::vector<double> CaseExecutor::run(const CaseDef& def) {
  if (def.loads) return run_loads_case(*spec_, def, cache_);
  return def.offline ? run_offline_case(*spec_, def, cache_, lps_)
                     : run_stream_case(*spec_, def, cache_);
}

}  // namespace dls::campaign
