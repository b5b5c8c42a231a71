// campaign-table1: the paper's §6 Table-1 experiment as the committed
// campaign spec (data/table1_sweep.campaign, 256 offline cases: K 5..75,
// maxmin and sum, methods g/lpr/lprg, exhaust take/drop).
//
// Why this workload: it runs cold LP bounds, the heuristics, platform
// generation and the campaign runner's thread pool, with no warm
// patches and no sockets — the LP layer used the other way round from
// replay-k128, so a warm-path gain that costs cold solves shows here.
//
// The spec, seed included, is the committed experiment, and its
// committed --jobs 1 report (reference/) is what the run's report is
// checked against. --seed orders the executor pass below: the cases
// are the same in every run, only the order the two workers take them
// in changes, so case times stay comparable across seeds.
//
// A run alternates two run_campaign passes at two jobs (the throughput
// is the faster pass's) with two passes that execute every case through
// CaseExecutor::run on a two-thread pool to time each case (a case's
// latency is its faster pass), checking that every case value matches
// the runner's.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

#include "campaign/exec.hpp"
#include "campaign/plan.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "common.hpp"
#include "exp/experiment.hpp"
#include "obs/export.hpp"
#include "promtext.hpp"
#include "spans.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace perfbench {

namespace {

namespace cmp = dls::campaign;

constexpr int kJobs = 2;
constexpr int kCoreSampleEvery = 8;  // cases timed per method through exp::run_case
constexpr int kPasses = 2;           // runner passes, then executor passes
constexpr int kSetupRepeats = 50;    // before each pass; parse + expand ~50 us

cmp::ScenarioSpec load_spec(const RunConfig& cfg) {
  return cmp::read_campaign_file({cfg.root + "/data/table1_sweep.campaign"});
}

std::string reference_path(const RunConfig& cfg) {
  return cfg.root + "/perfbench/reference/table1_sweep_jobs1.json";
}

/// Compares two write_report_json texts: the text outside numbers must
/// match exactly; numbers are compared as doubles.
struct ReportDiff {
  bool shape_ok = true;
  int numbers = 0;
  int ulp_diffs = 0;    ///< numbers that differ at all
  int beyond_tol = 0;   ///< numbers that differ by more than 1e-12 relative
};

ReportDiff compare_reports(const std::string& a, const std::string& b) {
  ReportDiff d;
  std::size_t i = 0, j = 0;
  bool in_string = false;
  while (i < a.size() && j < b.size()) {
    const char c = a[i];
    const bool number_start = !in_string && (c == '-' || (c >= '0' && c <= '9'));
    if (!number_start) {
      if (c != b[j]) {
        d.shape_ok = false;
        return d;
      }
      if (c == '"') in_string = !in_string;
      ++i;
      ++j;
      continue;
    }
    char* ea = nullptr;
    char* eb = nullptr;
    const double x = std::strtod(a.c_str() + i, &ea);
    const double y = std::strtod(b.c_str() + j, &eb);
    if (eb == b.c_str() + j) {
      d.shape_ok = false;
      return d;
    }
    ++d.numbers;
    if (x != y) {
      ++d.ulp_diffs;
      if (std::abs(x - y) > 1e-12 * std::max(std::abs(x), std::abs(y))) ++d.beyond_tol;
    }
    i = static_cast<std::size_t>(ea - a.c_str());
    j = static_cast<std::size_t>(eb - b.c_str());
  }
  d.shape_ok = d.shape_ok && i == a.size() && j == b.size();
  return d;
}

std::string report_json(const cmp::CampaignReport& report) {
  std::ostringstream os;
  cmp::write_report_json(report, os);
  return os.str();
}

/// Small stable id for the pool thread running a span.
int thread_slot() {
  static std::atomic<int> next{1};
  thread_local const int slot = next++;
  return slot;
}

/// Runs every case once through CaseExecutor::run on a kJobs pool, in
/// the order `order` gives, and returns each case's wall ms and values
/// (indexed by case).
struct CasePass {
  double wall_s = 0.0;
  std::vector<double> case_ms;
  std::vector<std::vector<double>> values;
};

CasePass case_pass(const cmp::ScenarioSpec& spec,
                   const std::vector<cmp::CaseDef>& cases,
                   const std::vector<std::size_t>& order, SpanLog* spans) {
  CasePass out;
  out.case_ms.resize(cases.size());
  out.values.resize(cases.size());
  cmp::CaseExecutor exec(spec);
  dls::ThreadPool pool(kJobs);
  const dls::WallTimer wall;
  dls::parallel_for(pool, 0, order.size(), [&](std::size_t k) {
    const std::size_t i = order[k];
    const Scope s(spans, "campaign.case", -1, static_cast<std::int64_t>(i),
                  thread_slot());
    const std::uint64_t t0 = dls::now_ns();
    out.values[i] = exec.run(cases[i]);
    out.case_ms[i] = static_cast<double>(dls::now_ns() - t0) * 1e-6;
  }, 1);
  out.wall_s = wall.seconds();
  return out;
}

/// Counts values of one case that differ at all, and that differ by
/// more than 1e-12 relative (NaN equals NaN: both mark "not run").
void diff_values(const std::vector<double>& a, const std::vector<double>& b,
                 int& bitwise, int& beyond_tol) {
  if (a.size() != b.size()) {
    ++beyond_tol;
    return;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i] || (std::isnan(a[i]) && std::isnan(b[i]))) continue;
    ++bitwise;
    if (!(std::abs(a[i] - b[i]) <= 1e-12 * std::max(std::abs(a[i]), std::abs(b[i]))))
      ++beyond_tol;
  }
}

}  // namespace

Result run_campaign(const RunConfig& cfg) {
  Result res;
  cmp::ScenarioSpec spec;
  std::vector<cmp::CaseDef> cases;
  std::vector<double> expand_ms, setup_s;
  const auto set_up = [&] {
    spec = load_spec(cfg);
    cmp::CampaignReport shape;
    const std::uint64_t t0 = dls::now_ns();
    cases = cmp::expand_cases(spec, shape);
    expand_ms.push_back(static_cast<double>(dls::now_ns() - t0) * 1e-6);
  };
  time_setup(kSetupRepeats, set_up, setup_s);

  // The runner's sink sees every case in order.
  std::vector<std::vector<double>> values(cases.size());
  int not_ok = 0, bad_ratio = 0;
  cmp::RunnerOptions options;
  options.jobs = kJobs;
  options.case_sink = [&](const cmp::CampaignReport& report,
                          const cmp::CaseRecord& rec) {
    values[rec.index] = rec.values;
    const auto& metrics = report.groups[rec.group].metrics;
    for (std::size_t m = 0; m < metrics.size() && m < rec.values.size(); ++m) {
      const double v = rec.values[m];
      if (metrics[m].name == "ok" && v != 1.0) ++not_ok;
      if (metrics[m].name.rfind("ratio_", 0) == 0 && !(v >= 0.0 && v <= 1.0 + 1e-9))
        ++bad_ratio;
    }
  };
  std::ifstream ref_in(reference_path(cfg));
  const bool have_ref = ref_in.is_open();
  std::stringstream ref;
  ref << ref_in.rdbuf();

  // Runner passes alternate with executor passes, so both sample the
  // whole run: a slow spell of the host lasts seconds and then spares a
  // later pass. Executor passes take the cases in seeded orders. The obs
  // deltas span the first runner pass only.
  std::vector<std::size_t> order(cases.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  dls::Rng rng(cfg.seed);
  const Exposition before = scrape_self();
  Exposition after;
  cmp::CampaignReport report;
  double runner_s = 0.0, executor_s = 0.0;
  std::size_t executed = 0;
  ReportDiff diff;
  std::vector<std::vector<double>> pass_ms;
  int value_ulp = 0, value_beyond = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    if (pass > 0) time_setup(kSetupRepeats, set_up, setup_s);
    const dls::WallTimer wall;
    cmp::CampaignReport r = cmp::run_campaign(spec, options);
    const double seconds = wall.seconds();
    executed += r.executed_cases;
    const ReportDiff d = compare_reports(report_json(r), ref.str());
    diff.shape_ok = diff.shape_ok && d.shape_ok && d.numbers > 0;
    diff.numbers = d.numbers;
    diff.ulp_diffs = std::max(diff.ulp_diffs, d.ulp_diffs);
    diff.beyond_tol = std::max(diff.beyond_tol, d.beyond_tol);
    if (pass == 0) {
      after = scrape_self();
      runner_s = seconds;
      report = std::move(r);
    }
    runner_s = std::min(runner_s, seconds);

    time_setup(kSetupRepeats, set_up, setup_s);
    std::shuffle(order.begin(), order.end(), rng);
    CasePass p = case_pass(spec, cases, order, nullptr);
    executor_s = pass == 0 ? p.wall_s : std::min(executor_s, p.wall_s);
    int ulp = 0;
    for (std::size_t i = 0; i < cases.size(); ++i)
      diff_values(p.values[i], values[i], ulp, value_beyond);
    value_ulp = std::max(value_ulp, ulp);
    pass_ms.push_back(std::move(p.case_ms));
  }
  res.metrics["setup_s"] = median(setup_s);
  res.metrics["throughput_per_s"] =
      static_cast<double>(report.executed_cases) / runner_s;
  res.attempted = executed;
  res.failed = static_cast<std::uint64_t>(not_ok);
  res.check("campaign: every case is ok",
            not_ok == 0 && executed == kPasses * cases.size() && cases.size() == 256);
  res.check("campaign: every heuristic ratio lies in [0, 1+1e-9]", bad_ratio == 0);
  res.check("campaign: group aggregates match the --jobs 1 reference (1e-12 rel)",
            have_ref && diff.shape_ok && diff.beyond_tol == 0);
  res.check("campaign: CaseExecutor case values equal the runner's (1e-12 rel)",
            value_beyond == 0);
  res.metrics["campaign.report_ulp_diffs"] = diff.ulp_diffs;
  res.metrics["campaign.case_ulp_diffs"] = value_ulp;
  res.note("campaign-table1: " + std::to_string(report.executed_cases) +
           " cases, fastest of " + std::to_string(kPasses) + " runner passes " +
           dls::obs::format_double(runner_s) + " s at " + std::to_string(kJobs) +
           " jobs; report vs --jobs 1 reference: " + std::to_string(diff.numbers) +
           " numbers, at most " + std::to_string(diff.ulp_diffs) +
           " differ bitwise, " + std::to_string(diff.beyond_tol) +
           " beyond 1e-12 relative");
  const Summary lat = summarize(per_item_min(pass_ms));
  res.metrics["latency_p50_ms"] = lat.p50;
  std::ostringstream os;
  os << "campaign-table1: case latency (faster of " << kPasses << " passes) p50 "
     << lat.p50 << " ms, p75 " << lat.p75 << " ms, p90 " << lat.p90 << " ms, p"
     << lat.tail_pct << " " << lat.tail << " ms over n=" << lat.n << "; up to "
     << value_ulp << " case values differ bitwise from the runner's";
  res.note(os.str());
  res.metrics["peak_rss_mb"] = self_peak_rss_mb();

  if (!cfg.trace) return res;

  SpanLog spans;
  const CasePass traced = case_pass(spec, cases, order, &spans);
  const Summary case_ms = summarize(spans.durations_us("campaign.case"));
  res.metrics["campaign.case_ms_p50"] = case_ms.p50 * 1e-3;
  res.metrics["campaign.case_ms_tail"] = case_ms.tail * 1e-3;
  res.metrics["campaign.expand_ms"] = median(expand_ms);
  res.metrics["campaign.cache_hit_frac"] =
      static_cast<double>(report.platform_cache_hits) /
      static_cast<double>(report.platform_cache_hits + report.platform_builds);
  double busy_ms = 0.0;
  for (const double ms : traced.case_ms) busy_ms += ms;
  // Busy share of the pool during the traced pass itself: the runner's
  // wall comes from another pass, and host noise between the two can
  // push that ratio past 1.
  res.metrics["campaign.parallel_eff"] = busy_ms * 1e-3 / (kJobs * traced.wall_s);
  res.metrics["trace.overhead_ratio"] = traced.wall_s / executor_s;

  // platform.generate_ms: every (cell, replication) platform built once
  // through a fresh artifact cache, whose misses generate.
  cmp::ArtifactCache fresh(spec);
  std::vector<double> gen_ms;
  for (const cmp::CaseDef& def : cases) {
    if (def.objective != 0 || def.exhaust != 0) continue;
    const Scope s(&spans, "platform.generate", -1, static_cast<std::int64_t>(def.cell));
    const std::uint64_t t0 = dls::now_ns();
    (void)fresh.platform_for(def.cell, def.rep);
    gen_ms.push_back(static_cast<double>(dls::now_ns() - t0) * 1e-6);
  }
  res.metrics["platform.generate_ms"] = median(gen_ms);

  // core.case_ms.*: the per-method times exp::run_case returns, on a
  // sample of the offline cases, configured as the campaign does.
  std::vector<double> g_ms, lpr_ms, lprg_ms;
  dls::lp::BatchSolver lps;
  for (std::size_t i = 0; i < cases.size(); i += kCoreSampleEvery) {
    const cmp::CaseDef& def = cases[i];
    dls::exp::CaseConfig config;
    config.objective = spec.objectives[def.objective];
    config.payoff_spread = spec.payoff_spread;
    config.greedy.local_exhaust = spec.exhaust[def.exhaust];
    config.with_lpr = cmp::has_method(spec, cmp::Method::Lpr);
    config.with_lprg = cmp::has_method(spec, cmp::Method::Lprg);
    config.with_lprr = false;
    config.seed = cmp::payoff_stream_seed(spec, def.cell, def.rep);
    const Scope s(&spans, "core.run_case", -1, static_cast<std::int64_t>(i));
    const auto r =
        dls::exp::run_case(config, *fresh.platform_for(def.cell, def.rep), lps);
    g_ms.push_back(r.t_g.seconds * 1e3);
    lpr_ms.push_back(r.t_lpr.seconds * 1e3);
    lprg_ms.push_back(r.t_lprg.seconds * 1e3);
  }
  res.metrics["core.case_ms.g"] = median(g_ms);
  res.metrics["core.case_ms.lpr"] = median(lpr_ms);
  res.metrics["core.case_ms.lprg"] = median(lprg_ms);

  add_lp_metrics(res, before, after);
  add_render_metrics(res);
  spans.write_chrome(cfg.workdir + "/trace-campaign-table1.json");
  for (const auto& [name, ms] : spans.self_ms())
    res.note("self time " + name + ": " + dls::obs::format_double(ms) + " ms");
  return res;
}

int write_campaign_reference(const RunConfig& cfg, const std::string& out_path) {
  const cmp::ScenarioSpec spec = load_spec(cfg);
  cmp::RunnerOptions options;
  options.jobs = 1;
  const cmp::CampaignReport report = cmp::run_campaign(spec, options);
  std::ofstream os(out_path, std::ios::trunc);
  cmp::write_report_json(report, os);
  return os.good() ? 0 : 1;
}

}  // namespace perfbench
