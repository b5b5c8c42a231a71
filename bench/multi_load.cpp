// Multi-load steady-state benchmark (ISSUE 8).
//
// Two questions:
//
//   1. Joint-solve scaling: for platform size K and concurrent load
//      count N, how does one joint LP scale in N, and what does the
//      objective choice buy? Each (K, N) cell solves the same sampled
//      load set under WeightedSum and MaxMin and reports solve time,
//      Jain fairness and the worst weighted throughput — the fairness
//      curve the paper's single-load model cannot express.
//
//   2. Shared LP vs N independent solves on an event sequence: a
//      churned arrival/departure stream is rescheduled two ways —
//      through the MultiLoadRescheduler (ONE shared slot LP, arrivals
//      and departures are bound/cost patches under a carried simplex
//      capsule) and by solving each active load's single-load LP cold
//      at every event (the pre-ISSUE-8 architecture: N independent
//      programs, no shared state). The headline metric is
//          shared_cold_ratio = shared warm ms/event / independent cold
//          ms/event,
//      expected below 1 from K >= 64 (CI gates on it); the independent
//      baseline additionally misallocates shared links, which the
//      sum_throughput columns make visible.
//
// One machine-readable JSON object per cell is printed on its own line
// (prefix "JSON "); CI collects these into BENCH_multi_load.json at the
// repo root. Each line carries the build stamp (support/build_info) so
// a committed artifact is traceable to its producing binary.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/multi_solve.hpp"
#include "exp/experiment.hpp"
#include "online/metrics.hpp"
#include "online/rescheduler.hpp"
#include "platform/generator.hpp"
#include "support/build_info.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace {

dls::platform::Platform make_platform(int k, std::uint64_t seed) {
  dls::platform::GeneratorParams params;
  params.num_clusters = k;
  params.ensure_connected = true;
  dls::Rng rng(seed + 7919 * static_cast<std::uint64_t>(k));
  return generate_platform(params, rng);
}

dls::core::LoadSet make_loads(int n, int k, dls::Rng& rng) {
  dls::core::LoadSet set;
  for (int j = 0; j < n; ++j) {
    dls::core::LoadSpec load;
    load.source = static_cast<int>(rng.uniform_int(0, k - 1));
    load.weight = 1.0 + 0.5 * rng.uniform(-1.0, 1.0);
    set.loads.push_back(load);
  }
  return set;
}

double min_weighted(const dls::core::LoadSet& set,
                    const std::vector<double>& throughput) {
  double worst = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < throughput.size(); ++j)
    worst = std::min(worst, set.loads[j].weight * throughput[j]);
  return throughput.empty() ? 0.0 : worst;
}

}  // namespace

int main() try {
  using namespace dls;
  const std::uint64_t seed = exp::bench_seed();
  const std::string build = support::build_summary();

  std::cout << "# Multi-load steady state: joint-LP scaling in N, and shared\n"
            << "# warm-patched LP vs N independent cold solves per event\n"
            << "# " << build << "\n";

  std::vector<std::string> json_lines;

  // 1. Joint-solve scaling and the fairness story.
  for (const int k : {16, 64}) {
    const platform::Platform plat = make_platform(k, seed);
    for (const int n : {2, 4, 8, 16}) {
      Rng rng(seed ^ (0x6d6cULL + 131 * static_cast<std::uint64_t>(k) +
                      static_cast<std::uint64_t>(n)));
      const core::LoadSet set = make_loads(n, k, rng);

      core::MultiLoadSolveOptions options;
      options.objective = core::MultiObjective::WeightedSum;
      WallTimer sum_timer;
      const core::MultiLoadSolution sum = core::solve_loads(plat, set, options);
      const double sum_seconds = sum_timer.seconds();

      options.objective = core::MultiObjective::MaxMin;
      WallTimer mm_timer;
      const core::MultiLoadSolution mm = core::solve_loads(plat, set, options);
      const double mm_seconds = mm_timer.seconds();

      if (sum.status != lp::SolveStatus::Optimal ||
          mm.status != lp::SolveStatus::Optimal) {
        std::cout << "K=" << k << " N=" << n << ": solve failed, skipping\n";
        continue;
      }
      std::cout << "K=" << k << " N=" << n << ": sum "
                << 1e3 * sum_seconds << " ms (Jain "
                << online::jain_index(sum.throughput) << "), maxmin "
                << 1e3 * mm_seconds << " ms (Jain "
                << online::jain_index(mm.throughput) << ", min weighted "
                << min_weighted(set, mm.throughput) << ")\n";

      std::ostringstream js;
      js.precision(6);
      js << "{\"bench\":\"multi_load\",\"k\":" << k << ",\"n\":" << n
         << ",\"sum_seconds\":" << sum_seconds
         << ",\"sum_iterations\":" << sum.lp_iterations
         << ",\"sum_throughput\":" << sum.objective
         << ",\"sum_jain\":" << online::jain_index(sum.throughput)
         << ",\"sum_min_weighted\":" << min_weighted(set, sum.throughput)
         << ",\"maxmin_seconds\":" << mm_seconds
         << ",\"maxmin_iterations\":" << mm.lp_iterations
         << ",\"maxmin_jain\":" << online::jain_index(mm.throughput)
         << ",\"maxmin_min_weighted\":" << min_weighted(set, mm.throughput)
         << ",\"build\":\"" << build << "\"}";
      json_lines.push_back(js.str());
    }
  }

  // 2. Event sequence: shared warm-patched LP vs N independent cold
  // solves. The stream keeps ~8 loads active: each event flips a coin
  // between an arrival (fresh id, random home cluster) and a departure
  // (random active load), biased to pull the count back to 8.
  for (const int k : {16, 64}) {
    const platform::Platform plat = make_platform(k, seed + 1);
    const int events = exp::scaled(160);

    // Build the event sequence once so both replays see identical sets.
    Rng rng(seed ^ (0xe7e7ULL + static_cast<std::uint64_t>(k)));
    std::vector<std::vector<online::ActiveLoad>> states;
    std::vector<online::ActiveLoad> active;
    int next_id = 0;
    for (int e = 0; e < events; ++e) {
      const bool arrive = active.empty() ||
                          rng.uniform(0.0, 8.0) > static_cast<double>(active.size());
      if (arrive) {
        online::ActiveLoad load;
        load.id = next_id++;
        load.cluster = static_cast<int>(rng.uniform_int(0, k - 1));
        load.weight = 1.0 + 0.5 * rng.uniform(-1.0, 1.0);
        active.push_back(load);
      } else {
        const std::size_t victim = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
        active[victim] = active.back();
        active.pop_back();
      }
      if (!active.empty()) states.push_back(active);
    }

    // Shared LP: one rescheduler carried across every event.
    online::MultiReschedulerOptions shared_options;
    shared_options.solve.objective = core::MultiObjective::WeightedSum;
    online::MultiLoadRescheduler shared(plat, shared_options);
    double shared_seconds = 0.0;
    double shared_throughput = 0.0;
    for (const auto& state : states) {
      const online::MultiReschedule r = shared.reschedule(state);
      shared_seconds += r.seconds;
      shared_throughput += r.objective;
    }

    // Independent baseline: every event re-solves each active load's
    // single-load LP cold (no shared state, no capsule).
    double independent_seconds = 0.0;
    double independent_throughput = 0.0;
    core::MultiLoadSolveOptions cold_options;
    cold_options.objective = core::MultiObjective::WeightedSum;
    for (const auto& state : states) {
      WallTimer timer;
      double total = 0.0;
      for (const online::ActiveLoad& load : state) {
        core::LoadSet one;
        core::LoadSpec spec;
        spec.source = load.cluster;
        spec.weight = load.weight;
        one.loads.push_back(spec);
        const core::MultiLoadSolution sol =
            core::solve_loads(plat, one, cold_options);
        total += sol.objective;
      }
      independent_seconds += timer.seconds();
      independent_throughput += total;
    }

    const double n_events = static_cast<double>(states.size());
    const double shared_ms = 1e3 * shared_seconds / n_events;
    const double independent_ms = 1e3 * independent_seconds / n_events;
    const double ratio = independent_ms > 0.0 ? shared_ms / independent_ms : 0.0;
    const online::MultiLoadRescheduler::Stats& stats = shared.stats();

    std::cout << "K=" << k << ": " << states.size() << " events, shared LP "
              << shared_ms << " ms/event (" << stats.warm_solves << "/"
              << states.size() << " warm, " << shared.slot_count()
              << " slots) vs independent cold " << independent_ms
              << " ms/event (ratio " << ratio << ")\n";

    std::ostringstream js;
    js.precision(6);
    js << "{\"bench\":\"multi_load_events\",\"k\":" << k
       << ",\"events\":" << states.size()
       << ",\"shared_warm_solves\":" << stats.warm_solves
       << ",\"shared_cold_solves\":" << stats.cold_solves
       << ",\"shared_slots\":" << shared.slot_count()
       << ",\"shared_ms_per_event\":" << shared_ms
       << ",\"independent_ms_per_event\":" << independent_ms
       << ",\"shared_cold_ratio\":" << ratio
       << ",\"shared_objective_per_event\":" << shared_throughput / n_events
       << ",\"independent_objective_per_event\":"
       << independent_throughput / n_events
       << ",\"build\":\"" << build << "\"}";
    json_lines.push_back(js.str());
  }

  for (const std::string& line : json_lines) std::cout << "JSON " << line << "\n";
  return 0;
} catch (const dls::Error& e) {
  std::cerr << "bench_multi_load: " << e.what() << '\n';
  return 1;
}
