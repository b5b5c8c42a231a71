// Table 1 sweep reproduction (§6.1 headline numbers), driven by the
// committed declarative spec data/table1_sweep.campaign through the
// campaign runner: a stratified sample of the paper's
// 269,835-configuration grid, with the greedy local-exhaust ablation on
// the spec's exhaust axis. The §6.1 aggregates are recomputed from the
// runner's streaming per-case record sink:
//
//   * mean LPRG/G objective ratio: paper reports 1.98 for MAXMIN and 1.02
//     for SUM over all platforms;
//   * LPR's ratio to LP: "very poor", often rounding everything to zero.
//
// DLS_BENCH_SCALE scales the spec's replication count; DLS_BENCH_JOBS
// sets the worker count; DLS_BENCH_SEED overrides the spec seed.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "campaign/runner.hpp"
#include "exp/experiment.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main() try {
  using namespace dls;
  campaign::ScenarioSpec spec = campaign::read_campaign_file(
      {"data/table1_sweep.campaign", "../data/table1_sweep.campaign"});
  spec.replications = exp::scaled(spec.replications);
  if (std::getenv("DLS_BENCH_SEED") != nullptr) spec.seed = exp::bench_seed();

  std::cout << "# Table 1 sweep (stratified sample): headline aggregates of section 6.1\n"
            << "# paper expectation: LPRG/G ~ 1.98 (MAXMIN), ~ 1.02 (SUM); LPR/LP near 0\n"
            << "# spec: " << spec.name << ", " << spec.platforms.size()
            << " grid cells x " << spec.replications << " replications\n";

  // Streaming aggregation over the runner's ordered per-case records:
  // every statistic below is derived from the case stream, not from a
  // materialized result vector.
  Accumulator lprg_over_g_mm, lprg_over_g_sum, lprg_over_gdrop_mm, lprg_over_gdrop_sum;
  exp::RatioAccumulator lpr_mm, lpr_sum, lprg_mm, lprg_sum, g_mm, g_sum, gdrop_mm,
      gdrop_sum;
  int lpr_zero = 0, total = 0, failed = 0;

  campaign::RunnerOptions options;
  options.jobs = exp::bench_jobs();
  options.case_sink = [&](const campaign::CampaignReport& report,
                          const campaign::CaseRecord& record) {
    const campaign::GroupAggregate& group = report.groups[record.group];
    const auto value = [&](const char* name) {
      for (std::size_t i = 0; i < group.metrics.size(); ++i)
        if (group.metrics[i].name == name) return record.values[i];
      return std::numeric_limits<double>::quiet_NaN();
    };
    if (value("ok") != 1.0) {
      ++failed;
      return;
    }
    ++total;
    const bool mm = group.objective == "maxmin";
    const bool drop = group.exhaust == "drop";
    // Per-case ratios are already normalized by the LP bound, so the
    // RatioAccumulators receive (ratio, 1).
    const double rg = value("ratio_g");
    const double rlpr = value("ratio_lpr");
    const double rlprg = value("ratio_lprg");
    const double over_g = value("lprg_over_g");
    if (drop) {
      (mm ? gdrop_mm : gdrop_sum).add(rg, 1.0);
      if (!std::isnan(over_g)) (mm ? lprg_over_gdrop_mm : lprg_over_gdrop_sum).add(over_g);
      return;
    }
    (mm ? g_mm : g_sum).add(rg, 1.0);
    (mm ? lpr_mm : lpr_sum).add(rlpr, 1.0);
    (mm ? lprg_mm : lprg_sum).add(rlprg, 1.0);
    if (!std::isnan(over_g)) (mm ? lprg_over_g_mm : lprg_over_g_sum).add(over_g);
    if (mm && rlpr < 1e-9 && value("lp_bound") > 1e-9) ++lpr_zero;
  };

  const campaign::CampaignReport report = campaign::run_campaign(spec, options);

  TextTable table({"aggregate", "MAXMIN", "SUM"});
  table.add_row({"mean LPRG/G", TextTable::fmt(lprg_over_g_mm.mean(), 3),
                 TextTable::fmt(lprg_over_g_sum.mean(), 3)});
  table.add_row({"mean LPRG/G(drop-app)", TextTable::fmt(lprg_over_gdrop_mm.mean(), 3),
                 TextTable::fmt(lprg_over_gdrop_sum.mean(), 3)});
  table.add_row({"mean LPR/LP", TextTable::fmt(lpr_mm.mean(), 3),
                 TextTable::fmt(lpr_sum.mean(), 3)});
  table.add_row({"mean LPRG/LP", TextTable::fmt(lprg_mm.mean(), 3),
                 TextTable::fmt(lprg_sum.mean(), 3)});
  table.add_row({"mean G/LP", TextTable::fmt(g_mm.mean(), 3),
                 TextTable::fmt(g_sum.mean(), 3)});
  table.add_row({"mean G(drop-app)/LP", TextTable::fmt(gdrop_mm.mean(), 3),
                 TextTable::fmt(gdrop_sum.mean(), 3)});
  table.add_row({"stddev LPRG/LP", TextTable::fmt(lprg_mm.stddev(), 3),
                 TextTable::fmt(lprg_sum.stddev(), 3)});
  table.print(std::cout);
  std::cout << "cases: " << total << " ok, " << failed << " failed of "
            << report.total_cases << " (" << report.platform_builds
            << " platform builds, " << report.platform_cache_hits
            << " cache hits); MAXMIN cases where LPR rounded to zero: "
            << lpr_zero << "\n";
  return 0;
} catch (const dls::Error& e) {
  std::cerr << "bench_table1_sweep: " << e.what() << '\n';
  return 1;
}
