#include "exp/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "support/error.hpp"
#include "support/timer.hpp"

namespace dls::exp {

namespace {

void check_valid(const core::SteadyStateProblem& problem,
                 const core::HeuristicResult& result, const char* method) {
  const auto report = core::validate_allocation(problem, result.allocation, 1e-5);
  if (!report.ok) {
    throw Error(std::string("experiment: ") + method + " produced an invalid "
                "allocation: " +
                (report.violations.empty() ? "?" : report.violations.front()));
  }
}

}  // namespace

namespace {

/// The shared case kernel, run once for every entry of `greedy`: `rng`
/// has already produced the platform (or is fresh when the platform
/// came from a cache) and now drives payoffs and the LPRR coins. The
/// relaxation, the LP bound, LPR and LPRR do not read the greedy
/// options, so they run once; G and LPRG run once per entry. Entry i
/// holds what a one-entry call on greedy[i] returns, bit for bit: the
/// rng is drawn in the same order, and an entry stops where its own
/// standalone run would. Every LP solve goes through `arena` (shared
/// column analysis, zero steady-state allocation); a solve's numbers do
/// not depend on the arena's history.
std::vector<CaseResult> run_case_on(const CaseConfig& config,
                                    const platform::Platform& plat, Rng& rng,
                                    lp::SolveArena& arena,
                                    std::span<const core::GreedyOptions> greedy) {
  std::vector<double> payoffs(plat.num_clusters());
  for (double& p : payoffs)
    p = rng.uniform(1.0 - config.payoff_spread, 1.0 + config.payoff_spread);
  const core::SteadyStateProblem problem(plat, payoffs, config.objective);

  core::LpWarmStart warm;  // no capsule: the arena only
  warm.arena = &arena;

  std::vector<CaseResult> out(greedy.size());
  // live[i]: entry i has not stopped on a failed solve.
  std::vector<char> live(greedy.size(), 1);
  const auto for_live = [&](const auto& set) {
    for (std::size_t i = 0; i < out.size(); ++i)
      if (live[i]) set(out[i]);
  };
  WallTimer timer;

  // LP, LPR and LPRG all read the one relaxation solved here. Its time
  // counts toward each of them (and each entry), so every Timing is its
  // method's standalone cost.
  timer.reset();
  const core::Relaxation relaxation = core::solve_relaxation(problem, {}, &warm);
  const double t_relaxation = timer.seconds();
  const auto bound = core::lp_upper_bound(problem, relaxation);
  const Timing t_lp{timer.seconds(), 1};
  for_live([&](CaseResult& r) { r.t_lp = t_lp; });
  if (bound.status != lp::SolveStatus::Optimal) return out;
  for_live([&](CaseResult& r) { r.lp = bound.objective; });

  for (std::size_t i = 0; i < out.size(); ++i) {
    timer.reset();
    const auto g = core::run_greedy(problem, greedy[i]);
    out[i].t_g = {timer.seconds(), 0};
    check_valid(problem, g, "G");
    out[i].g = g.objective;
  }

  if (config.with_lpr) {
    timer.reset();
    const auto lpr = core::run_lpr(problem, relaxation);
    const Timing t_lpr{t_relaxation + timer.seconds(), lpr.lp_solves};
    for_live([&](CaseResult& r) { r.t_lpr = t_lpr; });
    if (lpr.status != lp::SolveStatus::Optimal) return out;
    check_valid(problem, lpr, "LPR");
    for_live([&](CaseResult& r) { r.lpr = lpr.objective; });
  }

  if (config.with_lprg) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      timer.reset();
      const auto lprg = core::run_lprg(problem, relaxation, greedy[i]);
      out[i].t_lprg = {t_relaxation + timer.seconds(), lprg.lp_solves};
      if (lprg.status != lp::SolveStatus::Optimal) {
        live[i] = 0;
        continue;
      }
      check_valid(problem, lprg, "LPRG");
      out[i].lprg = lprg.objective;
    }
    if (std::find(live.begin(), live.end(), 1) == live.end()) return out;
  }

  if (config.with_lprr) {
    Rng coin = rng.split();
    core::LprrOptions options;
    options.arena = &arena;
    timer.reset();
    const auto lprr = core::run_lprr(problem, coin, options);
    const Timing t_lprr{timer.seconds(), lprr.lp_solves};
    for_live([&](CaseResult& r) { r.t_lprr = t_lprr; });
    if (lprr.status != lp::SolveStatus::Optimal) return out;
    check_valid(problem, lprr, "LPRR");
    for_live([&](CaseResult& r) { r.lprr = lprr.objective; });
  }
  if (config.with_lprr_eq) {
    Rng coin = rng.split();
    core::LprrOptions options;
    options.equal_probability = true;
    options.arena = &arena;
    const auto lprr_eq = core::run_lprr(problem, coin, options);
    if (lprr_eq.status != lp::SolveStatus::Optimal) return out;
    check_valid(problem, lprr_eq, "LPRR-EQ");
    for_live([&](CaseResult& r) { r.lprr_eq = lprr_eq.objective; });
  }
  if (config.with_lprr_oneshot) {
    core::LprrOptions options;
    options.resolve_between_fixings = false;
    options.arena = &arena;
    {
      Rng coin = rng.split();
      const auto lprr = core::run_lprr(problem, coin, options);
      if (lprr.status != lp::SolveStatus::Optimal) return out;
      check_valid(problem, lprr, "LPRR-1SHOT");
      for_live([&](CaseResult& r) { r.lprr_1shot = lprr.objective; });
    }
    {
      Rng coin = rng.split();
      options.equal_probability = true;
      const auto lprr = core::run_lprr(problem, coin, options);
      if (lprr.status != lp::SolveStatus::Optimal) return out;
      check_valid(problem, lprr, "LPRR-1SHOT-EQ");
      for_live([&](CaseResult& r) { r.lprr_1shot_eq = lprr.objective; });
    }
  }

  for_live([](CaseResult& r) { r.ok = true; });
  return out;
}

void require_spread(const CaseConfig& config) {
  require(config.payoff_spread >= 0.0 && config.payoff_spread < 1.0,
          "run_case: payoff_spread must be in [0, 1)");
}

}  // namespace

CaseResult run_case(const CaseConfig& config) {
  require_spread(config);
  Rng rng(config.seed);
  const platform::Platform plat = generate_platform(config.params, rng);
  lp::BatchSolver lps;
  return run_case_on(config, plat, rng, lps.local_arena(), {&config.greedy, 1})
      .front();
}

CaseResult run_case(const CaseConfig& config, const platform::Platform& plat,
                    lp::BatchSolver& lps) {
  return run_sibling_cases(config, plat, {&config.greedy, 1}, lps).front();
}

std::vector<CaseResult> run_sibling_cases(
    const CaseConfig& config, const platform::Platform& plat,
    std::span<const core::GreedyOptions> greedy, lp::BatchSolver& lps) {
  require_spread(config);
  require(!greedy.empty(), "run_sibling_cases: no greedy options");
  Rng rng(config.seed);
  return run_case_on(config, plat, rng, lps.local_arena(), greedy);
}

platform::GeneratorParams sample_grid_params(const platform::Table1Grid& grid,
                                             int num_clusters, Rng& rng) {
  platform::GeneratorParams p;
  p.num_clusters = num_clusters;
  p.connectivity = grid.connectivity[rng.index(grid.connectivity.size())];
  p.heterogeneity = grid.heterogeneity[rng.index(grid.heterogeneity.size())];
  p.mean_gateway_bw = grid.mean_gateway_bw[rng.index(grid.mean_gateway_bw.size())];
  p.mean_backbone_bw =
      grid.mean_backbone_bw[rng.index(grid.mean_backbone_bw.size())];
  p.mean_max_connections =
      grid.mean_max_connections[rng.index(grid.mean_max_connections.size())];
  return p;
}

void RatioAccumulator::add(double method_value, double lp_value) {
  if (!(lp_value > 1e-12) || std::isnan(method_value)) return;
  acc_.add(method_value / lp_value);
}

double bench_scale() {
  const char* env = std::getenv("DLS_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

std::uint64_t bench_seed() {
  const char* env = std::getenv("DLS_BENCH_SEED");
  if (env == nullptr) return 20240515ULL;
  return std::strtoull(env, nullptr, 10);
}

int bench_jobs() {
  const char* env = std::getenv("DLS_BENCH_JOBS");
  if (env == nullptr) return 0;
  const int v = std::atoi(env);
  return v > 0 ? v : 0;
}

int scaled(int n) {
  const double v = std::round(n * bench_scale());
  return v < 1.0 ? 1 : static_cast<int>(v);
}

}  // namespace dls::exp
