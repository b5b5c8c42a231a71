// The campaign runner: expands a ScenarioSpec into its deterministic
// case matrix and streams the cases through the thread pool.
//
// Case numbering, seed streams and execution units are the plan's
// (plan.hpp). `--shard i/n` keeps the cases whose unit ordinal is
// i mod n, so it partitions any campaign identically on every machine
// and never splits a unit; with one exhaust value that is case index
// mod n. Cases that differ only in method/objective/warm replay the
// same platform, arrivals and failures, and a re-sharded campaign
// reproduces every case bit for bit.
//
// Execution runs in units: the exhaust siblings of an offline case run
// as one unit, which solves their shared relaxation once
// (CaseExecutor::run_unit) and still yields each case's own record,
// bit-identical to running it alone. Units are dynamically chunked
// (support::parallel_for's atomic cursor): a worker that lands on an
// expensive LPRR case only costs itself while the pool keeps draining
// the matrix. Generated platforms are cached per (cell, replication)
// and shared by every case that differs only in
// scenario/method/objective; `.platform`, `.workload` and `.events`
// files are loaded once per campaign.
//
// Aggregation is streaming and order-restoring: per-case records enter
// a bounded reorder buffer and are folded into Welford accumulators and
// P-squared percentile markers *in case order*, so a million-case
// campaign never materializes a result vector and the report is
// bit-identical for any worker count and any shard partition union.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "support/stats.hpp"

namespace dls::campaign {

/// One aggregated statistic of one group.
struct MetricAggregate {
  std::string name;
  Accumulator acc;
  P2Quantile p50{0.5};
  P2Quantile p95{0.95};
};

/// One aggregation group: every axis except the replication. Collapsed
/// axes ("*") mark dimensions the group does not split on — offline
/// groups run every method inside one case, stream groups take the
/// first exhaust value.
struct GroupAggregate {
  std::string platform;   ///< platform cell label
  std::string scenario;   ///< workload/dynamics label
  std::string objective;
  std::string method;     ///< "*" for offline groups
  std::string warm;       ///< "*" for offline groups
  std::string exhaust;    ///< "*" for stream groups
  bool offline = false;
  /// Multi-load (`loads` axis) group: method/warm/exhaust are all "*"
  /// and `objective` is the cell's multi-load objective (sum|maxmin|pf).
  bool loads = false;
  std::vector<MetricAggregate> metrics;
};

/// One finished case, delivered to RunnerOptions::case_sink in case
/// order. `values` aligns with the group's metric list; NaN marks a
/// metric with no honest value for this case (method not run, no
/// completions) and is skipped by the aggregates.
struct CaseRecord {
  std::size_t index = 0;  ///< global case index (pre-shard)
  std::size_t group = 0;  ///< index into CampaignReport::groups
  int rep = 0;
  std::vector<double> values;
};

struct CampaignReport {
  std::string name;
  std::size_t total_cases = 0;     ///< full matrix size
  std::size_t executed_cases = 0;  ///< cases in this shard
  int shard_index = 0;
  int shard_count = 1;
  int replications = 1;
  /// Artifact-cache counters (text report only: cache races under
  /// parallel execution make the split jobs-dependent).
  std::size_t platform_builds = 0;
  std::size_t platform_cache_hits = 0;
  std::vector<GroupAggregate> groups;  ///< expansion order
};

struct RunnerOptions {
  int jobs = 0;       ///< worker threads; 0 = hardware, 1 = inline
  int shard_index = 0;
  int shard_count = 1;
  /// Dynamic-scheduling chunk (execution units per pull; a unit is one
  /// case or an offline case's exhaust siblings).
  std::size_t chunk = 1;
  /// Streaming per-case sink, called in case order from the reduction
  /// path (one caller at a time). Leave empty to skip.
  std::function<void(const CampaignReport&, const CaseRecord&)> case_sink{};
};

/// Expands and runs the campaign. Deterministic: the report (and the
/// case_sink stream) is a pure function of (spec, shard); jobs and
/// chunk only change wall time. Throws dls::Error on invalid specs,
/// unreadable referenced files, or solver failure.
[[nodiscard]] CampaignReport run_campaign(const ScenarioSpec& spec,
                                          const RunnerOptions& options = {});

/// Folds one finished case into its group's aggregates (NaN values are
/// skipped — they mark metrics with no honest value for the case). The
/// single fold path shared by the in-process runner and the distributed
/// coordinator: both apply records in ascending case order, which is
/// what makes reports bit-identical across execution modes, worker
/// counts and resume points.
void fold_case(CampaignReport& report, const CaseRecord& record);

/// Deterministic machine-readable report (no wall times, no cache
/// counters; 17 significant digits) — bit-identical for any jobs count.
void write_report_json(const CampaignReport& report, std::ostream& os);

/// CSV: one row per (group, metric).
void write_report_csv(const CampaignReport& report, std::ostream& os);

/// Human-readable report (includes cache counters and wall time).
void write_report_text(const CampaignReport& report, std::ostream& os,
                       double wall_seconds);

/// One JSONL line for a finished case (the `--cases` stream).
void write_case_json(const CampaignReport& report, const CaseRecord& record,
                     std::ostream& os);

/// Mean of `metric` in the first group whose scenario label matches;
/// 0.0 when absent or empty. The lookup behind the static-vs-dynamic
/// degradation reports (`dls dynamics --reps`, bench_dynamics_churn).
[[nodiscard]] double group_metric_mean(const CampaignReport& report,
                                       const std::string& scenario,
                                       const std::string& metric);

}  // namespace dls::campaign
