// Experiment harness for the paper's §6 evaluation: runs every heuristic
// (plus the LP comparator) on generated platforms, with wall-clock timing,
// and aggregates ratio-to-LP series the way Figures 5-7 report them.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/heuristics.hpp"
#include "core/problem.hpp"
#include "lp/batch.hpp"
#include "platform/generator.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace dls::exp {

struct CaseConfig {
  platform::GeneratorParams params;
  core::Objective objective = core::Objective::MaxMin;
  std::uint64_t seed = 1;   ///< drives both the platform and LPRR's coins
  /// LPR and LPRG round the relaxation the LP bound already solved, so
  /// they add no solve of their own; a campaign whose method axis
  /// excludes them skips only the rounding and greedy work (greedy and
  /// the LP bound always run — they anchor every ratio). LPRR and its
  /// ablations re-solve their own models.
  bool with_lpr = true;
  bool with_lprg = true;
  bool with_lprr = false;   ///< LPRR costs ~K^2 LP solves; opt in
  bool with_lprr_eq = false;
  bool with_lprr_oneshot = false;  ///< both one-shot rounding ablations

  /// Per-application payoffs are sampled uniformly from
  /// [1 - payoff_spread, 1 + payoff_spread]. The paper's evaluation
  /// under-specifies payoffs; with uniform payoffs (spread 0) both
  /// objectives are trivially optimized by local-only computation (all
  /// ratios pin to 1.0, contradicting the paper's own curves), so a
  /// positive spread is required for non-trivial, network-bound
  /// instances. See DESIGN.md.
  double payoff_spread = 0.5;

  core::GreedyOptions greedy;  ///< local-exhaust policy ablation
};

/// A method's standalone cost. LP, LPR and LPRG share one relaxation
/// solve per case, and its time is included in each of their `seconds`
/// (so t_lpr + t_lprg counts it twice); each reports lp_solves = 1.
struct Timing {
  double seconds = 0.0;
  int lp_solves = 0;
};

/// NaN marks methods that were not run.
struct CaseResult {
  bool ok = false;  ///< false if any LP solve failed (result then unusable)
  double lp = std::numeric_limits<double>::quiet_NaN();
  double g = std::numeric_limits<double>::quiet_NaN();
  double lpr = std::numeric_limits<double>::quiet_NaN();
  double lprg = std::numeric_limits<double>::quiet_NaN();
  double lprr = std::numeric_limits<double>::quiet_NaN();
  double lprr_eq = std::numeric_limits<double>::quiet_NaN();
  double lprr_1shot = std::numeric_limits<double>::quiet_NaN();
  double lprr_1shot_eq = std::numeric_limits<double>::quiet_NaN();
  Timing t_lp, t_g, t_lpr, t_lprg, t_lprr;
};

/// Generates the platform from config.seed and runs the requested methods.
/// Every produced allocation is validated against equations (7); a
/// violation throws (it would invalidate the whole experiment).
[[nodiscard]] CaseResult run_case(const CaseConfig& config);

/// The same case kernel on a pre-built platform — the campaign runner's
/// per-cell artifact cache hands one generated (or file-loaded) Platform
/// to every case that differs only in objective/method/seed, so the
/// platform and its route tables are built once. Payoffs and the LPRR
/// coins are drawn from a fresh Rng(config.seed); config.params is
/// ignored. Note the stream differs from run_case(config), which
/// interleaves platform generation into the same Rng.
[[nodiscard]] CaseResult run_case(const CaseConfig& config,
                                  const platform::Platform& plat);

/// The same kernels routed through a shared BatchSolver: every LP solve
/// in the case (the relaxation behind LP/LPR/LPRG, LPRR's ~K^2 re-solves)
/// reuses the calling thread's arena and the batch's shared
/// column-structure cache. Numbers are bit-identical to the plain
/// overloads — the batch only removes redundant analysis and allocation.
/// Safe to share one BatchSolver across concurrent callers.
[[nodiscard]] CaseResult run_case(const CaseConfig& config, lp::BatchSolver& lps);
[[nodiscard]] CaseResult run_case(const CaseConfig& config,
                                  const platform::Platform& plat,
                                  lp::BatchSolver& lps);

/// Uniformly samples one cell of the Table-1 grid for the non-K
/// dimensions (connectivity, heterogeneity, mean g / bw / maxcon).
[[nodiscard]] platform::GeneratorParams sample_grid_params(
    const platform::Table1Grid& grid, int num_clusters, Rng& rng);

/// Accumulates method / lp ratios over cases (skipping degenerate lp = 0
/// and not-run NaN methods) into a full support::Accumulator, so sweep
/// and campaign reports carry stddev and count alongside the mean.
class RatioAccumulator {
public:
  void add(double method_value, double lp_value);
  [[nodiscard]] double mean() const { return acc_.mean(); }
  [[nodiscard]] double stddev() const { return acc_.stddev(); }
  [[nodiscard]] int count() const { return static_cast<int>(acc_.count()); }
  [[nodiscard]] const Accumulator& acc() const { return acc_; }

private:
  Accumulator acc_;
};

/// Bench scale factor from DLS_BENCH_SCALE (default 1.0; e.g. 0.2 for a
/// smoke run, 5 for a long calibration run).
[[nodiscard]] double bench_scale();

/// Deterministic bench seed from DLS_BENCH_SEED (default fixed).
[[nodiscard]] std::uint64_t bench_seed();

/// Worker count for bench replication sweeps from DLS_BENCH_JOBS
/// (default 0 = all hardware threads).
[[nodiscard]] int bench_jobs();

/// max(1, round(n * bench_scale())).
[[nodiscard]] int scaled(int n);

}  // namespace dls::exp
