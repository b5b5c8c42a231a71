// Extension experiment X1 (DESIGN.md): google-benchmark microbenchmarks
// of the LP substrate on steady-state programs.
//
//   * reduced vs full formulation: the beta-substituted program has K^2
//     fewer columns and K^2 fewer rows — measure the solve-time gap that
//     justifies using it everywhere;
//   * scaling in K for the reduced form;
//   * the greedy heuristic as a baseline (no LP at all).
#include <benchmark/benchmark.h>

#include <iostream>

#include "core/heuristics.hpp"
#include "core/problem.hpp"
#include "core/schedule.hpp"
#include "exp/experiment.hpp"
#include "lp/simplex.hpp"
#include "platform/generator.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace {

using namespace dls;

platform::Platform make_platform(int k, std::uint64_t salt) {
  Rng rng(exp::bench_seed() + salt);
  const platform::Table1Grid grid;
  platform::GeneratorParams params = exp::sample_grid_params(grid, k, rng);
  return generate_platform(params, rng);
}

void BM_ReducedLp(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto plat = make_platform(k, 1);
  const core::SteadyStateProblem problem(plat, std::vector<double>(k, 1.0),
                                         core::Objective::MaxMin);
  std::int64_t iterations = 0;
  for (auto _ : state) {
    const auto reduced = problem.build_reduced();
    const auto sol = lp::SimplexSolver().solve(reduced.model);
    benchmark::DoNotOptimize(sol.objective);
    iterations += sol.iterations;
  }
  state.counters["simplex_iters"] =
      benchmark::Counter(static_cast<double>(iterations), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ReducedLp)->Arg(5)->Arg(10)->Arg(20)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_FullLp(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto plat = make_platform(k, 1);  // same platform as BM_ReducedLp
  const core::SteadyStateProblem problem(plat, std::vector<double>(k, 1.0),
                                         core::Objective::MaxMin);
  std::int64_t iterations = 0;
  for (auto _ : state) {
    const auto full = problem.build_full(false);
    const auto sol = lp::SimplexSolver().solve(full.model);
    benchmark::DoNotOptimize(sol.objective);
    iterations += sol.iterations;
  }
  state.counters["simplex_iters"] =
      benchmark::Counter(static_cast<double>(iterations), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FullLp)->Arg(5)->Arg(10)->Arg(20)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_Greedy(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto plat = make_platform(k, 1);
  const core::SteadyStateProblem problem(plat, std::vector<double>(k, 1.0),
                                         core::Objective::MaxMin);
  for (auto _ : state) {
    const auto result = core::run_greedy(problem);
    benchmark::DoNotOptimize(result.objective);
  }
}
BENCHMARK(BM_Greedy)->Arg(5)->Arg(10)->Arg(20)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_PlatformGeneration(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::uint64_t salt = 0;
  for (auto _ : state) {
    const auto plat = make_platform(k, salt++);
    benchmark::DoNotOptimize(plat.num_links());
  }
}
BENCHMARK(BM_PlatformGeneration)->Arg(10)->Arg(50)->Arg(95)->Unit(benchmark::kMillisecond);

void BM_ScheduleReconstruction(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto plat = make_platform(k, 2);
  const core::SteadyStateProblem problem(plat, std::vector<double>(k, 1.0),
                                         core::Objective::MaxMin);
  const auto h = core::run_lprg(problem, core::solve_relaxation(problem));
  for (auto _ : state) {
    const auto sched = core::build_periodic_schedule(problem, h.allocation);
    benchmark::DoNotOptimize(sched.period);
  }
}
BENCHMARK(BM_ScheduleReconstruction)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) try {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
} catch (const dls::Error& e) {
  std::cerr << "bench_lp_ablation: " << e.what() << '\n';
  return 1;
}
