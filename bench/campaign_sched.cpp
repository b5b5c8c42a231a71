// Campaign scheduling bench: the dynamic chunked parallel_for against
// a static up-front partition (four contiguous blocks per worker) on a
// skewed case mix.
//
// The sweep's cost distribution is heavily skewed: an LPRR case is ~K^2
// LP solves while a plain heuristic case finishes in milliseconds. With
// a static partition the worker that draws the block of LPRR cases
// serializes them while the rest of the pool idles; with the atomic-
// cursor dynamic schedule the heavy cases spread across workers as soon
// as any worker is free. The mix below puts all heavy cases at the
// front of the range — the static partition's worst (and, for a sorted
// case list, typical) layout.
//
// The case list runs twice through the dynamic schedule (a warm-up pass
// and a timed pass), and both passes must produce bitwise identical
// results (asserted: a case's numbers may not depend on which thread or
// arena ran it, or on what that arena solved before). The headline
// number is the projected speedup = static / dynamic *critical path*
// for an n-worker pool, replayed from the measured per-case costs. The
// replay assigns work to the earliest-free worker in index order —
// exactly a pool's pull discipline at each schedule's granularity
// (blocks of ~size/(4*workers) vs single cases) — so it reports what
// the schedules would do with real parallelism even when the bench
// itself ran on one core.
//
// Cases run through one shared lp::BatchSolver (per-thread solve arenas
// + shared column-structure cache), same as the campaign runner.
//
// One machine-readable JSON line is printed (prefix "JSON "), collected
// into BENCH_campaign.json by CI.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>
#include <sstream>
#include <vector>

#include "exp/experiment.hpp"
#include "lp/batch.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace {

/// Replays a schedule over the measured per-case costs: pieces (index
/// ranges) are handed to the earliest-free worker in order; returns the
/// makespan (critical path = the busiest worker's finish time).
double replay_makespan(const std::vector<double>& costs,
                       const std::vector<std::pair<std::size_t, std::size_t>>& pieces,
                       std::size_t workers) {
  std::vector<double> free_at(workers, 0.0);
  for (const auto& [begin, end] : pieces) {
    double piece = 0.0;
    for (std::size_t i = begin; i < end; ++i) piece += costs[i];
    auto it = std::min_element(free_at.begin(), free_at.end());
    *it += piece;
  }
  return *std::max_element(free_at.begin(), free_at.end());
}

std::vector<std::pair<std::size_t, std::size_t>> static_blocks(
    std::size_t n, std::size_t workers) {
  // The static layout: at most four contiguous blocks per worker, cut
  // up front.
  const std::size_t blocks = std::max<std::size_t>(1, 4 * workers);
  const std::size_t chunk = std::max<std::size_t>(1, (n + blocks - 1) / blocks);
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t b = 0; b * chunk < n; ++b)
    out.push_back({b * chunk, std::min(n, (b + 1) * chunk)});
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> case_pieces(std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back({i, i + 1});
  return out;
}

}  // namespace

int main() {
  using namespace dls;
  const std::uint64_t seed = exp::bench_seed();
  const int heavy = exp::scaled(6);    // LPRR at K=20: ~K^2 LP solves each
  const int light = exp::scaled(60);   // plain heuristics at K=8
  const int jobs = exp::bench_jobs() > 0 ? exp::bench_jobs() : 0;

  const platform::Table1Grid grid;
  std::vector<exp::CaseConfig> configs;
  for (int i = 0; i < heavy + light; ++i) {
    Rng rng(seed + 512927357ULL * static_cast<std::uint64_t>(i));
    exp::CaseConfig config;
    const bool is_heavy = i < heavy;
    config.params = exp::sample_grid_params(grid, is_heavy ? 20 : 8, rng);
    config.with_lprr = is_heavy;
    config.seed = rng.next_u64();
    configs.push_back(config);
  }

  ThreadPool pool(jobs == 0 ? 0 : static_cast<std::size_t>(jobs));
  std::cout << "# Dynamic chunked scheduling vs static partition on a skewed "
               "LPRR/greedy case mix\n"
            << "# " << heavy << " heavy (LPRR, K=20) + " << light
            << " light (K=8) cases, " << pool.size() << " workers\n";

  // One batch for every pass, like the campaign runner: per-thread
  // arenas, one shared column-structure cache across all cases.
  lp::BatchSolver lps;

  std::vector<double> case_seconds(configs.size(), 0.0);
  const auto run = [&]() {
    std::vector<exp::CaseResult> results(configs.size());
    WallTimer timer;
    parallel_for(pool, 0, configs.size(), [&](std::size_t i) {
      WallTimer case_timer;
      results[i] = exp::run_case(configs[i], lps);
      case_seconds[i] = case_timer.seconds();
    }, 1);
    const double seconds = timer.seconds();
    return std::pair<double, std::vector<exp::CaseResult>>(seconds,
                                                           std::move(results));
  };

  // Warm-up pass so the timed pass pays no first-touch costs.
  const auto [warmup_seconds, warmup_results] = run();
  const auto [dynamic_seconds, dynamic_results] = run();

  for (std::size_t i = 0; i < configs.size(); ++i) {
    const exp::CaseResult& a = warmup_results[i];
    const exp::CaseResult& b = dynamic_results[i];
    const auto same = [](double x, double y) {
      return (std::isnan(x) && std::isnan(y)) || x == y;
    };
    if (a.ok != b.ok || !same(a.g, b.g) || !same(a.lpr, b.lpr) ||
        !same(a.lprg, b.lprg) || !same(a.lprr, b.lprr)) {
      std::cerr << "FATAL: rerunning case " << i
                << " changed its results (scheduling and arena reuse must "
                   "only move work, never numbers)\n";
      return 1;
    }
  }

  std::cout << "dynamic chunked: " << dynamic_seconds << "s (warm-up "
            << warmup_seconds << "s)\n";

  // Critical-path replay over the measured per-case costs (from the
  // final dynamic pass) for a canonical multi-worker pool.
  const std::size_t sim_workers =
      std::max<std::size_t>(4, std::thread::hardware_concurrency());
  const double total_cost =
      std::accumulate(case_seconds.begin(), case_seconds.end(), 0.0);
  const double static_cp = replay_makespan(
      case_seconds, static_blocks(case_seconds.size(), sim_workers), sim_workers);
  const double dynamic_cp =
      replay_makespan(case_seconds, case_pieces(case_seconds.size()), sim_workers);
  const double projected =
      dynamic_cp > 0.0 ? static_cp / dynamic_cp : 0.0;
  std::cout << "projected for " << sim_workers << " workers from per-case costs"
            << " (total " << total_cost << "s): static critical path "
            << static_cp << "s, dynamic " << dynamic_cp << "s, speedup "
            << projected << "x\n";

  const lp::BatchSolver::Stats bstats = lps.stats();

  std::ostringstream js;
  js.precision(6);
  js << "{\"bench\":\"campaign_sched\",\"heavy_cases\":" << heavy
     << ",\"light_cases\":" << light << ",\"workers\":" << pool.size()
     << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
     << ",\"dynamic_seconds\":" << dynamic_seconds
     << ",\"case_cost_seconds\":" << total_cost
     << ",\"sim_workers\":" << sim_workers
     << ",\"static_critical_seconds\":" << static_cp
     << ",\"dynamic_critical_seconds\":" << dynamic_cp
     << ",\"projected_speedup\":" << projected
     << ",\"batch_cache_builds\":" << bstats.cache_misses
     << ",\"results_match\":1}";
  std::cout << "JSON " << js.str() << "\n";
  return 0;
}
