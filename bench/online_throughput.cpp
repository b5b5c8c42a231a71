// Online workload engine benchmark: dynamic arrivals with adaptive
// warm-started rescheduling (src/online/, ISSUE 2).
//
// Two questions per platform size K:
//
//   1. Raw event throughput: how many Poisson arrivals per second can
//      the lifecycle engine absorb end to end (greedy rescheduling, the
//      production-path method for large K)?
//   2. What does the simplex warm start buy? The same workload is
//      replayed twice with LP-based rescheduling (LPR: one relaxation
//      solve per event) — once with WarmPolicy::Auto (basis capsule
//      carried across events, departures repaired by the composite
//      bound phase 1) and once with WarmPolicy::Never (every event
//      cold-solves). The headline metric is
//          warm_cold_ratio = mean warm reschedule time (auto run)
//                          / mean cold reschedule time (never run),
//      expected well below 0.5 for K >= 16. Both runs reach the same LP
//      relaxation value per event (LP optimality); LPR's rounded
//      allocations may differ on degenerate optima, so the two replays
//      are statistically equivalent rather than bit-identical.
//
// One machine-readable JSON object per K is printed on its own line
// (prefix "JSON "), mirroring bench_sim_validation; CI collects these
// into BENCH_online.json at the repo root.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "online/engine.hpp"
#include "platform/generator.hpp"
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

dls::online::Workload make_workload(int k, int count, std::uint64_t seed) {
  dls::online::PoissonParams p;
  p.count = count;
  p.rate = 4.0;
  p.mean_load = 900.0;
  dls::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  return poisson_workload(p, k, rng);
}

}  // namespace

int main() try {
  using namespace dls;
  const std::uint64_t seed = exp::bench_seed();

  std::cout << "# Online workload engine: arrivals/sec and warm-vs-cold reschedule time\n"
            << "# greedy run sizes the event loop; LPR auto-vs-never isolates the\n"
            << "# simplex warm-start capsule (same objectives by LP optimality)\n";

  std::vector<std::string> json_lines;
  for (const int k : {8, 16, 32}) {
    // 1. Event throughput with greedy rescheduling.
    const int greedy_arrivals = exp::scaled(4000);
    const online::Workload big = make_workload(k, greedy_arrivals, seed);
    const platform::Platform plat = make_platform(k, seed);
    online::OnlineOptions greedy_options;
    greedy_options.sched.method = online::Method::Greedy;
    greedy_options.sched.objective = core::Objective::MaxMin;
    WallTimer greedy_timer;
    const online::OnlineReport greedy_report =
        online::OnlineEngine(plat, greedy_options).run(big);
    const double greedy_wall = greedy_timer.seconds();

    // 2. Warm vs cold LP rescheduling on a smaller replay.
    const int lp_arrivals = exp::scaled(400);
    const online::Workload small = make_workload(k, lp_arrivals, seed + 1);
    online::OnlineOptions lp_options;
    lp_options.sched.method = online::Method::Lpr;
    lp_options.sched.objective = core::Objective::Sum;
    lp_options.sched.warm = online::WarmPolicy::Auto;
    const online::OnlineReport warm_report =
        online::OnlineEngine(plat, lp_options).run(small);
    lp_options.sched.warm = online::WarmPolicy::Never;
    const online::OnlineReport cold_report =
        online::OnlineEngine(plat, lp_options).run(small);

    const double warm_ms = warm_report.warm_solves > 0
                               ? 1e3 * warm_report.warm_seconds /
                                     warm_report.warm_solves
                               : 0.0;
    const double cold_ms = cold_report.cold_solves > 0
                               ? 1e3 * cold_report.cold_seconds /
                                     cold_report.cold_solves
                               : 0.0;
    const double ratio = cold_ms > 0.0 ? warm_ms / cold_ms : 0.0;

    std::cout << "K=" << k << ": " << greedy_report.arrivals << " arrivals, "
              << greedy_report.reschedules << " reschedules, "
              << static_cast<std::int64_t>(greedy_report.arrivals / greedy_wall)
              << " arrivals/sec (greedy); LPR warm " << warm_ms
              << " ms vs cold " << cold_ms << " ms per reschedule (ratio "
              << ratio << ", " << warm_report.warm_solves << "/"
              << warm_report.reschedules << " warm)\n";

    std::ostringstream js;
    js.precision(6);
    js << "{\"bench\":\"online\",\"k\":" << k
       << ",\"arrivals\":" << greedy_report.arrivals
       << ",\"completed\":" << greedy_report.completed
       << ",\"reschedules\":" << greedy_report.reschedules
       << ",\"arrivals_per_sec\":"
       << static_cast<double>(greedy_report.arrivals) / greedy_wall
       << ",\"greedy_wall_seconds\":" << greedy_wall
       << ",\"mean_utilization\":"
       << greedy_report.metrics.utilization.mean()
       << ",\"mean_response\":" << greedy_report.metrics.response.mean()
       << ",\"lp_arrivals\":" << warm_report.arrivals
       << ",\"lp_reschedules\":" << warm_report.reschedules
       << ",\"warm_solves\":" << warm_report.warm_solves
       << ",\"warm_mean_ms\":" << warm_ms
       << ",\"cold_solves\":" << cold_report.cold_solves
       << ",\"cold_mean_ms\":" << cold_ms
       << ",\"warm_cold_ratio\":" << ratio << "}";
    json_lines.push_back(js.str());
  }
  for (const std::string& line : json_lines) std::cout << "JSON " << line << "\n";
  return 0;
} catch (const dls::Error& e) {
  std::cerr << "bench_online_throughput: " << e.what() << '\n';
  return 1;
}
