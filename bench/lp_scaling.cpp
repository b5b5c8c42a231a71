// LP scaling bench: factorization x pricing-rule matrix for the revised
// simplex across platform sizes K (ISSUE 3 tentpole, extended by the
// ISSUE 6 kernel overhaul).
//
// For each K the steady-state reduced LP (Sum objective, every cluster
// active) is cold-solved under:
//
//   * dense   — DenseInverse + Dantzig: the historical dense baseline;
//   * sparse  — SparseLu + Dantzig: the pre-overhaul sparse path (the
//               field names below keep their PR-5 meaning so committed
//               baselines stay comparable);
//   * se      — SparseLu + SteepestEdge (devex): the default pricing;
//   * auto    — everything defaulted (Auto factorization picks dense
//               below the crossover, pricing is steepest edge).
//
// All four must agree on the LP objective (asserted, 1e-6 relative).
// Reported per K: best-of-repeats cold seconds, simplex pivots,
// microseconds per pivot, refactorization count, and peak eta-file
// nonzeros; then one warm (capsule) re-solve after a departure event,
// and a batch section solving payoff-re-priced variants through one
// lp::BatchSolver arena (shared column analysis, reused buffers) against
// a fresh-solver sequential loop, asserting bit-identical objectives.
//
// Platforms keep a bounded average router degree (connectivity ~ 8/K)
// so the link-row count grows linearly with K, the way real federations
// scale; a constant connectivity would grow m quadratically and the
// dense baseline could not even allocate its inverse at K = 256.
//
// One "JSON {...}" line per K, collected into BENCH_lp_scaling.json at
// the repo root by CI, which gates on sparse-beats-dense and
// steepest-edge-beats-Dantzig at K >= 64. Under DLS_BENCH_SCALE < 1
// (the CI smoke configuration) the K = 256 point is skipped: its dense
// baseline alone takes seconds.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "exp/experiment.hpp"
#include "lp/batch.hpp"
#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "platform/generator.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace {

dls::platform::Platform make_platform(int k, std::uint64_t seed) {
  dls::platform::GeneratorParams params;
  params.num_clusters = k;
  params.connectivity = std::min(0.4, 8.0 / k);
  params.ensure_connected = true;
  dls::Rng rng(seed + 6151 * static_cast<std::uint64_t>(k));
  return generate_platform(params, rng);
}

struct PathResult {
  double seconds = 0.0;
  int pivots = 0;
  double objective = 0.0;
  int refactors = 0;
  std::size_t eta_peak = 0;
};

PathResult cold_solve(const dls::lp::Model& model, dls::lp::Factorization f,
                      dls::lp::Pricing p, int repeats, bool hypersparse = true) {
  dls::lp::SimplexOptions opt;
  opt.factorization = f;
  opt.pricing = p;
  opt.compute_duals = false;
  opt.hypersparse = hypersparse;
  const dls::lp::SimplexSolver solver(opt);
  PathResult out;
  out.seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    dls::WallTimer timer;
    const dls::lp::Solution sol = solver.solve(model);
    // Best-of-repeats: robust against scheduler/frequency outliers that
    // would otherwise dominate the sub-millisecond points.
    out.seconds = std::min(out.seconds, timer.seconds());
    if (sol.status != dls::lp::SolveStatus::Optimal) {
      std::cerr << "lp_scaling: cold solve not optimal\n";
      std::exit(1);
    }
    out.pivots = sol.iterations;
    out.objective = sol.objective;
    out.refactors = sol.refactorizations;
    out.eta_peak = sol.eta_peak_nnz;
  }
  return out;
}

bool objectives_agree(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(a));
}

double us_per_pivot(const PathResult& r) {
  return r.pivots > 0 ? r.seconds * 1e6 / r.pivots : 0.0;
}

// Hypersparse solve telemetry, read back out of the metrics registry.
// The bench diffs two snapshots around a solve (or a block of repeats)
// to report per-K reach fractions and fallback rates.
struct HyperSnap {
  std::vector<double> bounds;  ///< shared by both reach histograms
  std::vector<std::uint64_t> ftran_buckets, btran_buckets;
  std::uint64_t ftran_count = 0, btran_count = 0;
  std::uint64_t ftran_falls = 0, btran_falls = 0;
};

HyperSnap hyper_snap() {
  HyperSnap out;
  for (const dls::obs::SeriesSnapshot& s : dls::obs::registry().snapshot().series) {
    if (s.name == "dls_lp_ftran_reach_fraction") {
      out.bounds = s.bounds;
      out.ftran_buckets = s.buckets;
      out.ftran_count = s.count;
    } else if (s.name == "dls_lp_btran_reach_fraction") {
      out.btran_buckets = s.buckets;
      out.btran_count = s.count;
    } else if (s.name == "dls_lp_ftran_fallbacks_total") {
      out.ftran_falls = s.counter;
    } else if (s.name == "dls_lp_btran_fallbacks_total") {
      out.btran_falls = s.counter;
    }
  }
  return out;
}

/// Median of the observations accumulated between two snapshots of a
/// reach-fraction histogram, linearly interpolated within its bucket.
double median_reach(const std::vector<double>& bounds,
                    const std::vector<std::uint64_t>& after,
                    const std::vector<std::uint64_t>& before) {
  if (after.empty()) return 0.0;
  std::vector<std::uint64_t> delta(after.size(), 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    delta[i] = after[i] - (i < before.size() ? before[i] : 0);
    total += delta[i];
  }
  if (total == 0) return 0.0;
  const double target = static_cast<double>(total) / 2.0;
  double cum = 0.0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    const double next = cum + static_cast<double>(delta[i]);
    if (next >= target && delta[i] > 0) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      // Reach fractions max out at 1.0, so the +Inf bucket is empty and
      // the last finite bound closes the interpolation range.
      const double hi = i < bounds.size() ? bounds[i] : 1.0;
      return lo + (hi - lo) * (target - cum) / static_cast<double>(delta[i]);
    }
    cum = next;
  }
  return 1.0;
}

double fallback_rate(std::uint64_t falls_after, std::uint64_t falls_before,
                     std::uint64_t count_after, std::uint64_t count_before) {
  const std::uint64_t solves = count_after - count_before;
  return solves > 0
             ? static_cast<double>(falls_after - falls_before) / solves
             : 0.0;
}

}  // namespace

int main() try {
  using namespace dls;
  const std::uint64_t seed = exp::bench_seed();
  const bool full = exp::bench_scale() >= 1.0;
  // Floored at 3 even in scaled-down CI runs: the gate compares wall
  // clocks, and best-of-one has no outlier protection.
  const int repeats = std::max(3, exp::scaled(3));
  const int batch_models = std::max(4, exp::scaled(16));

  std::cout << "# LP scaling: factorization x pricing matrix, revised simplex\n"
            << "# reduced steady-state model, Sum objective, all clusters active\n";

  std::vector<std::string> json_lines;
  std::vector<int> sizes{16, 32, 64, 128};
  if (full) sizes.push_back(256);
  for (const int k : sizes) {
    const platform::Platform plat = make_platform(k, seed);
    // Half the clusters host applications (with a payoff spread), the
    // other half are idle CPU donors: active applications ship load to
    // them, so the LP is contended and a departure genuinely
    // redistributes capacity instead of leaving the old basis optimal.
    std::vector<double> payoffs(static_cast<std::size_t>(k), 0.0);
    for (int c = 0; c < k; c += 2)
      payoffs[static_cast<std::size_t>(c)] = 1.0 + 0.1 * (c % 5);
    const core::SteadyStateProblem problem(plat, payoffs, core::Objective::Sum);
    core::SteadyStateProblem::ReducedModel reduced = problem.build_reduced();
    const lp::Model& model = reduced.model;

    std::size_t nnz = 0;
    for (int c = 0; c < model.num_constraints(); ++c) nnz += model.row(c).size();

    const PathResult dense = cold_solve(model, lp::Factorization::DenseInverse,
                                        lp::Pricing::Dantzig, repeats);
    const PathResult sparse = cold_solve(model, lp::Factorization::SparseLu,
                                         lp::Pricing::Dantzig, repeats);
    const HyperSnap h0 = hyper_snap();
    const PathResult se = cold_solve(model, lp::Factorization::SparseLu,
                                     lp::Pricing::SteepestEdge, repeats);
    const HyperSnap h1 = hyper_snap();
    // The knob-off arm: same factorization and pricing, dense sweeps
    // only. Hypersparse solves are bit-identical, so this arm must
    // reproduce the se arm's pivot count and objective exactly.
    const PathResult se_nohyper =
        cold_solve(model, lp::Factorization::SparseLu,
                   lp::Pricing::SteepestEdge, repeats, /*hypersparse=*/false);
    if (se_nohyper.objective != se.objective || se_nohyper.pivots != se.pivots) {
      std::cerr << "lp_scaling: hypersparse arm diverged from dense-pass arm"
                << " at K=" << k << "\n";
      return 1;
    }
    const PathResult autop = cold_solve(model, lp::Factorization::Auto,
                                        lp::SimplexOptions{}.pricing, repeats);
    for (const PathResult* r : {&sparse, &se, &autop}) {
      if (!objectives_agree(dense.objective, r->objective)) {
        std::cerr << "lp_scaling: objectives diverge at K=" << k << ": "
                  << dense.objective << " vs " << r->objective << "\n";
        return 1;
      }
    }

    // Warm chain under the defaults: fill the capsule, then re-solve
    // after a departure (one cluster's payoff drops to zero — the
    // online rescheduler's per-event shape).
    // Solver configured like the online rescheduler's per-event path:
    // no duals, a persistent arena, a live capsule.
    lp::SimplexOptions warm_opt;
    warm_opt.compute_duals = false;
    const lp::SimplexSolver warm_solver(warm_opt);
    lp::SolveArena warm_arena;
    lp::WarmState state;
    (void)warm_solver.solve(model, &state, &warm_arena);
    std::vector<double> departed = payoffs;
    departed[static_cast<std::size_t>((k / 2) & ~1)] = 0.0;  // an active cluster
    const core::SteadyStateProblem after = problem.with_payoffs(departed);
    after.update_reduced_payoffs(reduced);
    const HyperSnap hw0 = hyper_snap();
    WallTimer warm_timer;
    const lp::Solution warm = warm_solver.solve(model, &state, &warm_arena);
    const double warm_seconds = warm_timer.seconds();
    const HyperSnap hw1 = hyper_snap();
    if (warm.status != lp::SolveStatus::Optimal) {
      std::cerr << "lp_scaling: warm solve not optimal at K=" << k << "\n";
      return 1;
    }

    // Observability overhead: the same cold solve with the metrics
    // registry runtime-enabled (every solve records counters, pivots and
    // a histogram sample) vs runtime-disabled (each write is one relaxed
    // load and a branch). Same binary, same code path — CI gates the
    // ratio at <= 2% for K >= 64. Extra repeats because the gate
    // compares two nearly-identical minima.
    // The cost being measured (a handful of relaxed atomics per solve)
    // is far below per-solve timing noise, so each sample is a *block*
    // of solves timed as one unit — averaging inside the block — and
    // the arms alternate block-by-block so neither systematically runs
    // on a warmer cache. Best-of over rounds on both arms.
    const int block = std::clamp(static_cast<int>(0.05 / se.seconds), 4, 64);
    const int obs_rounds = std::max(5, repeats);
    const auto timed_block = [&](bool enabled) {
      obs::set_enabled(enabled);
      lp::SimplexOptions opt;
      opt.factorization = lp::Factorization::SparseLu;
      opt.pricing = lp::Pricing::SteepestEdge;
      opt.compute_duals = false;
      const lp::SimplexSolver solver(opt);
      lp::SolveArena arena;
      WallTimer timer;
      for (int s = 0; s < block; ++s) {
        if (solver.solve(model, nullptr, &arena).status != lp::SolveStatus::Optimal) {
          std::cerr << "lp_scaling: obs-arm solve not optimal\n";
          std::exit(1);
        }
      }
      return timer.seconds() / block;
    };
    double obs_on_seconds = timed_block(true);   // warmup round, discarded
    double obs_off_seconds = timed_block(false);
    obs_on_seconds = obs_off_seconds = std::numeric_limits<double>::infinity();
    for (int r = 0; r < obs_rounds; ++r) {
      obs_on_seconds = std::min(obs_on_seconds, timed_block(true));
      obs_off_seconds = std::min(obs_off_seconds, timed_block(false));
    }
    obs::set_enabled(true);
    const double obs_overhead =
        obs_off_seconds > 0.0 ? obs_on_seconds / obs_off_seconds : 1.0;

    // Batch section: payoff-re-priced variants of this K's model (same
    // constraint matrix, different costs — the campaign-cell shape).
    // Solving them through one BatchSolver arena must beat, and
    // bit-match, a fresh-solver loop, and build the shared column
    // structure exactly once.
    std::vector<core::SteadyStateProblem::ReducedModel> variants;
    variants.reserve(static_cast<std::size_t>(batch_models));
    for (int v = 0; v < batch_models; ++v) {
      std::vector<double> p = payoffs;
      for (std::size_t c = 0; c < p.size(); c += 2)
        p[c] = 1.0 + 0.07 * static_cast<double>((v + static_cast<int>(c)) % 7);
      variants.push_back(problem.with_payoffs(p).build_reduced());
    }
    std::vector<const lp::Model*> batch_ptrs;
    for (const auto& v : variants) batch_ptrs.push_back(&v.model);

    lp::SimplexOptions batch_opt;
    batch_opt.compute_duals = false;
    std::vector<double> plain_obj;
    WallTimer plain_timer;
    for (const lp::Model* m : batch_ptrs)
      plain_obj.push_back(lp::SimplexSolver(batch_opt).solve(*m).objective);
    const double plain_seconds = plain_timer.seconds();

    lp::BatchSolver batch;
    const lp::SimplexSolver batch_solver(batch_opt);
    std::vector<double> batch_obj;
    WallTimer batch_timer;
    for (const lp::Model* m : batch_ptrs)
      batch_obj.push_back(
          batch_solver.solve(*m, nullptr, &batch.local_arena()).objective);
    const double batch_seconds = batch_timer.seconds();
    for (std::size_t i = 0; i < batch_obj.size(); ++i) {
      if (batch_obj[i] != plain_obj[i]) {
        std::cerr << "lp_scaling: batch solve not bit-identical at K=" << k
                  << " model " << i << "\n";
        return 1;
      }
    }
    const lp::BatchSolver::Stats bstats = batch.stats();

    const std::size_t m = static_cast<std::size_t>(model.num_constraints());
    const std::size_t dense_binv_bytes = m * m * sizeof(double);
    const double speedup =
        sparse.seconds > 0.0 ? dense.seconds / sparse.seconds : 0.0;
    const double se_speedup =
        se.seconds > 0.0 ? sparse.seconds / se.seconds : 0.0;
    const double pivot_ratio =
        se.pivots > 0 ? static_cast<double>(sparse.pivots) / se.pivots : 0.0;
    const double batch_speedup =
        batch_seconds > 0.0 ? plain_seconds / batch_seconds : 0.0;
    const double hyper_speedup =
        se.seconds > 0.0 ? se_nohyper.seconds / se.seconds : 0.0;
    const double ftran_reach_median =
        median_reach(h1.bounds, h1.ftran_buckets, h0.ftran_buckets);
    const double btran_reach_median =
        median_reach(h1.bounds, h1.btran_buckets, h0.btran_buckets);
    const double ftran_fallback_rate = fallback_rate(
        h1.ftran_falls, h0.ftran_falls, h1.ftran_count, h0.ftran_count);
    const double btran_fallback_rate = fallback_rate(
        h1.btran_falls, h0.btran_falls, h1.btran_count, h0.btran_count);
    const double warm_fallback_rate = fallback_rate(
        hw1.ftran_falls + hw1.btran_falls, hw0.ftran_falls + hw0.btran_falls,
        hw1.ftran_count + hw1.btran_count, hw0.ftran_count + hw0.btran_count);

    std::cout << "K=" << k << ": m=" << model.num_constraints()
              << " n=" << model.num_variables() << " nnz=" << nnz
              << "\n  cold  dense " << dense.seconds * 1e3 << " ms/"
              << dense.pivots << "p, sparse(dantzig) " << sparse.seconds * 1e3
              << " ms/" << sparse.pivots << "p, steepest " << se.seconds * 1e3
              << " ms/" << se.pivots
              << "p (" << se.refactors << " refac, eta peak " << se.eta_peak
              << "), auto " << autop.seconds * 1e3 << " ms/" << autop.pivots
              << "p\n  se vs dantzig: " << se_speedup << "x time, "
              << pivot_ratio << "x pivots; warm " << warm_seconds * 1e3
              << " ms/" << warm.iterations << "p, capsule "
              << state.memory_bytes() << " B\n  hypersparse: no-hyper "
              << se_nohyper.seconds * 1e3 << " ms (" << hyper_speedup
              << "x), reach median ftran " << ftran_reach_median << " btran "
              << btran_reach_median << ", fallback ftran "
              << ftran_fallback_rate << " btran " << btran_fallback_rate
              << " warm " << warm_fallback_rate << "\n  batch " << batch_models
              << " models: plain " << plain_seconds * 1e3 << " ms, batch "
              << batch_seconds * 1e3 << " ms (" << batch_speedup << "x, "
              << bstats.cache_misses << " structure build(s) for "
              << batch_models << " solves)\n  obs overhead: "
              << obs_on_seconds * 1e3 << " ms on vs " << obs_off_seconds * 1e3
              << " ms off (" << obs_overhead << "x)\n";

    std::ostringstream js;
    js.precision(6);
    js << "{\"bench\":\"lp_scaling\",\"k\":" << k
       << ",\"rows\":" << model.num_constraints()
       << ",\"cols\":" << model.num_variables() << ",\"nnz\":" << nnz
       << ",\"repeats\":" << repeats
       << ",\"dense_cold_seconds\":" << dense.seconds
       << ",\"dense_pivots\":" << dense.pivots
       << ",\"sparse_cold_seconds\":" << sparse.seconds
       << ",\"sparse_pivots\":" << sparse.pivots
       << ",\"sparse_us_per_pivot\":" << us_per_pivot(sparse)
       << ",\"se_cold_seconds\":" << se.seconds
       << ",\"se_pivots\":" << se.pivots
       << ",\"se_us_per_pivot\":" << us_per_pivot(se)
       << ",\"se_refactorizations\":" << se.refactors
       << ",\"se_eta_peak_nnz\":" << se.eta_peak
       << ",\"se_nohyper_cold_seconds\":" << se_nohyper.seconds
       << ",\"se_nohyper_us_per_pivot\":" << us_per_pivot(se_nohyper)
       << ",\"hyper_speedup_vs_nohyper\":" << hyper_speedup
       << ",\"ftran_reach_median\":" << ftran_reach_median
       << ",\"btran_reach_median\":" << btran_reach_median
       << ",\"ftran_fallback_rate\":" << ftran_fallback_rate
       << ",\"btran_fallback_rate\":" << btran_fallback_rate
       << ",\"warm_fallback_rate\":" << warm_fallback_rate
       << ",\"auto_cold_seconds\":" << autop.seconds
       << ",\"auto_pivots\":" << autop.pivots
       << ",\"speedup\":" << speedup
       << ",\"se_speedup_vs_sparse\":" << se_speedup
       << ",\"se_pivot_ratio\":" << pivot_ratio
       << ",\"objective\":" << sparse.objective
       << ",\"sparse_warm_seconds\":" << warm_seconds
       << ",\"warm_pivots\":" << warm.iterations
       << ",\"warm_used\":" << (warm.warm_kind != lp::WarmKind::Cold ? "true" : "false")
       << ",\"capsule_bytes\":" << state.memory_bytes()
       << ",\"dense_binv_bytes\":" << dense_binv_bytes
       << ",\"batch_models\":" << batch_models
       << ",\"batch_plain_seconds\":" << plain_seconds
       << ",\"batch_seconds\":" << batch_seconds
       << ",\"batch_speedup\":" << batch_speedup
       << ",\"batch_cache_hits\":" << bstats.cache_hits
       << ",\"batch_cache_builds\":" << bstats.cache_misses
       << ",\"batch_arenas\":" << bstats.arenas
       << ",\"obs_on_seconds\":" << obs_on_seconds
       << ",\"obs_off_seconds\":" << obs_off_seconds
       << ",\"obs_overhead_ratio\":" << obs_overhead << "}";
    json_lines.push_back(js.str());
  }
  for (const std::string& line : json_lines) std::cout << "JSON " << line << "\n";
  return 0;
} catch (const dls::Error& e) {
  std::cerr << "bench_lp_scaling: " << e.what() << '\n';
  return 1;
}
