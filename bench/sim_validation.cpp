// Extension experiment X2 (DESIGN.md): execute reconstructed periodic
// schedules on the flow-level simulator and verify the analytical
// steady-state is achievable.
//
//   * Paced execution (each flow throttled to its reserved rate, the
//     fluid schedule of §3.2) must never overrun the period and must
//     deliver the scheduled throughput exactly.
//   * Work-conserving max-min fair sharing (TCP-like) may overrun the
//     period: a flow capped by beta*pbw cannot catch up after losing
//     early fair-share rounds. The overrun distribution is the
//     experiment's finding — the analytical model implicitly assumes
//     rate control.
//
// The max-min runs execute on both simulation engines (engine.hpp): the
// pre-refactor full-pass-per-event Rescan loop and the incremental
// event-calendar engine, cross-checking their overruns and comparing the
// number of full progressive-filling passes each needs.
//
// Replications are independent and run in parallel (DLS_BENCH_JOBS
// workers). Besides the human-readable table, one machine-readable JSON
// object per K is printed on its own line (prefix "JSON "), carrying
// events/sec, rate-recomputation counts per engine, and wall time, so
// the perf trajectory can be tracked across PRs in BENCH_*.json files.
#include <cmath>
#include <ctime>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "exp/experiment.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace {

/// Per-thread CPU time: immune to scheduling contention from sibling
/// replications, so the JSON events/sec metric does not depend on
/// DLS_BENCH_JOBS.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct RepResult {
  bool ok = false;
  double paced_overrun = 0.0;
  double maxmin_overrun = 0.0;
  double rescan_overrun = 0.0;
  double worst_deficit = 0.0;
  std::int64_t events = 0;              // incremental max-min run
  std::int64_t full_inc = 0;            // full solves, incremental engine
  std::int64_t partial_inc = 0;         // partial solves, incremental engine
  std::int64_t full_rescan = 0;         // full solves, rescan engine
  double overrun_gap = 0.0;             // |incremental - rescan| overrun
  double sim_seconds = 0.0;             // thread CPU s, incremental max-min run
};

RepResult run_rep(std::uint64_t seed, int k, int rep) {
  using namespace dls;
  RepResult out;
  Rng rng(seed + 49979687ULL * static_cast<std::uint64_t>(k) + rep);
  const platform::Table1Grid grid;
  platform::GeneratorParams params = exp::sample_grid_params(grid, k, rng);
  const platform::Platform plat = generate_platform(params, rng);
  const std::vector<double> payoffs(plat.num_clusters(), 1.0);
  const core::SteadyStateProblem problem(plat, payoffs, core::Objective::MaxMin);
  const auto h = core::run_lprg(problem, core::solve_relaxation(problem));
  if (h.status != lp::SolveStatus::Optimal) return out;
  const auto sched = core::build_periodic_schedule(problem, h.allocation);

  sim::SimOptions paced;
  paced.periods = 4;
  paced.warmup_periods = 1;
  const auto paced_report = sim::simulate_schedule(problem, sched, paced);

  sim::SimOptions fair = paced;
  fair.policy = sim::SharingPolicy::MaxMin;
  const double cpu_before = thread_cpu_seconds();
  const auto fair_report = sim::simulate_schedule(problem, sched, fair);
  out.sim_seconds = thread_cpu_seconds() - cpu_before;

  sim::SimOptions rescan = fair;
  rescan.engine = sim::EngineKind::Rescan;
  const auto rescan_report = sim::simulate_schedule(problem, sched, rescan);

  out.ok = true;
  out.paced_overrun = paced_report.worst_overrun_ratio;
  out.maxmin_overrun = fair_report.worst_overrun_ratio;
  out.rescan_overrun = rescan_report.worst_overrun_ratio;
  // Counters compare the same workload on both engines: the max-min run.
  out.events = fair_report.events;
  out.full_inc = fair_report.rate_recomputations;
  out.partial_inc = fair_report.partial_recomputations;
  out.full_rescan = rescan_report.rate_recomputations;
  out.overrun_gap =
      std::abs(fair_report.worst_overrun_ratio - rescan_report.worst_overrun_ratio);
  for (int c = 0; c < plat.num_clusters(); ++c) {
    const double want = sched.throughput(c);
    if (want > 1e-9)
      out.worst_deficit = std::max(
          out.worst_deficit, (want - fair_report.throughput[c]) / want);
  }
  return out;
}

}  // namespace

int main() try {
  using namespace dls;
  const std::uint64_t seed = exp::bench_seed();
  const int per_k = exp::scaled(6);

  std::cout << "# Simulator validation: periodic-schedule execution, paced vs max-min sharing\n"
            << "# expectation: paced overrun == 1.0 exactly; max-min overrun >= 1 with a tail\n"
            << "# engines: incremental (event calendar + delta re-solves) vs rescan reference\n";

  TextTable table({"K", "paced_overrun_max", "maxmin_overrun_mean", "maxmin_overrun_max",
                   "throughput_deficit_max", "full_solves_rescan", "full_solves_inc",
                   "solve_drop", "cases"});
  std::vector<std::string> json_lines;
  ThreadPool pool(static_cast<std::size_t>(exp::bench_jobs()));
  for (const int k : {5, 10, 20, 32}) {
    Accumulator paced_overrun, maxmin_overrun, deficit, engine_gap;
    std::int64_t events = 0, full_inc = 0, partial_inc = 0, full_rescan = 0;
    double sim_seconds = 0.0;
    int cases = 0;
    std::vector<RepResult> reps(per_k);
    WallTimer timer;
    parallel_for(pool, 0, reps.size(),
                 [&](std::size_t rep) {
                   reps[rep] = run_rep(seed, k, static_cast<int>(rep));
                 });
    const double wall = timer.seconds();
    for (const RepResult& r : reps) {
      if (!r.ok) continue;
      ++cases;
      paced_overrun.add(r.paced_overrun);
      maxmin_overrun.add(r.maxmin_overrun);
      deficit.add(r.worst_deficit);
      engine_gap.add(r.overrun_gap);
      events += r.events;
      full_inc += r.full_inc;
      partial_inc += r.partial_inc;
      full_rescan += r.full_rescan;
      sim_seconds += r.sim_seconds;
    }
    const double drop = full_inc > 0
                            ? static_cast<double>(full_rescan) /
                                  static_cast<double>(full_inc)
                            : 0.0;
    // Empty accumulators (every rep failed) have NaN extrema; table_cell
    // renders the placeholder and json_value keeps the JSON parseable.
    table.add_row({std::to_string(k),
                   table_cell(paced_overrun, paced_overrun.max(), 4),
                   table_cell(maxmin_overrun, maxmin_overrun.mean(), 4),
                   table_cell(maxmin_overrun, maxmin_overrun.max(), 4),
                   table_cell(deficit, deficit.max(), 4),
                   std::to_string(full_rescan), std::to_string(full_inc),
                   TextTable::fmt(drop, 1) + "x", std::to_string(cases)});

    std::ostringstream js;
    js.precision(6);
    // events_per_sec measures the incremental engine alone: summed
    // per-thread CPU time of the incremental max-min simulate_schedule
    // calls — not the sweep's wall clock, which is dominated by LP solves
    // and varies with the worker count.
    js << "{\"bench\":\"sim_validation\",\"k\":" << k << ",\"cases\":" << cases
       << ",\"events\":" << events << ",\"events_per_sec\":"
       << (sim_seconds > 0.0 ? static_cast<double>(events) / sim_seconds : 0.0)
       << ",\"sim_seconds\":" << sim_seconds
       << ",\"rate_recomputations_rescan\":" << full_rescan
       << ",\"rate_recomputations_incremental\":" << full_inc
       << ",\"partial_recomputations_incremental\":" << partial_inc
       << ",\"solve_reduction\":" << drop
       << ",\"max_engine_overrun_gap\":"
       << json_value(engine_gap, engine_gap.max(), 6)
       << ",\"wall_seconds\":" << wall << "}";
    json_lines.push_back(js.str());
  }
  table.print(std::cout);
  for (const std::string& line : json_lines) std::cout << "JSON " << line << "\n";
  return 0;
} catch (const dls::Error& e) {
  std::cerr << "bench_sim_validation: " << e.what() << '\n';
  return 1;
}
