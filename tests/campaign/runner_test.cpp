// Campaign runner tests: expansion shape, worker-count determinism,
// shard partitioning, artifact caching, and the streaming-vs-
// materialized aggregation oracle.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/plan.hpp"
#include "support/error.hpp"

namespace dls::campaign {
namespace {

/// A small mixed campaign: offline sweep + online stream + dynamics
/// replay over two platform cells — every case kind in one matrix.
ScenarioSpec mixed_spec() {
  return from_text(
      "dls-campaign 1\n"
      "name mixed\n"
      "seed 7\n"
      "replications 2\n"
      "objective maxmin sum\n"
      "method g lprg\n"
      "platform generate clusters=5 connectivity=0.6 connected=1\n"
      "platform grid clusters=4\n"
      "workload none\n"
      "workload poisson arrivals=12 rate=1 mean-load=300\n"
      "dynamics scenario event-rate=0.1 severity=0.5\n");
}

std::vector<CaseRecord> collect(const ScenarioSpec& spec, RunnerOptions opt,
                                CampaignReport* report_out = nullptr) {
  std::vector<CaseRecord> records;
  opt.case_sink = [&records](const CampaignReport&, const CaseRecord& r) {
    records.push_back(r);
  };
  const CampaignReport report = run_campaign(spec, opt);
  if (report_out != nullptr) *report_out = report;
  return records;
}

TEST(CampaignRunner, ExpansionShape) {
  const ScenarioSpec spec = mixed_spec();
  CampaignReport report;
  const std::vector<CaseRecord> records = collect(spec, {.jobs = 1}, &report);
  // 2 cells x [offline: 2 objectives x 1 exhaust] = 4 offline groups;
  // 2 cells x [stream: 2 objectives x 1 warm x 2 methods] = 8 stream.
  EXPECT_EQ(report.groups.size(), 12u);
  // 2 replications per group.
  EXPECT_EQ(report.total_cases, 24u);
  EXPECT_EQ(report.executed_cases, 24u);
  EXPECT_EQ(records.size(), 24u);
  // Records arrive in case order with contiguous indices.
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(records[i].index, i);
  // Every case ran: metric 0 is "ok" for both kinds.
  for (const CaseRecord& r : records) {
    ASSERT_FALSE(r.values.empty());
    EXPECT_EQ(r.values[0], 1.0) << "case " << r.index;
  }
}

TEST(CampaignRunner, WorkerCountNeverChangesTheReport) {
  const ScenarioSpec spec = mixed_spec();
  CampaignReport serial, parallel;
  const std::vector<CaseRecord> r1 = collect(spec, {.jobs = 1}, &serial);
  const std::vector<CaseRecord> r8 = collect(spec, {.jobs = 8}, &parallel);
  // Per-case records are bit-identical and in the same order.
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].index, r8[i].index);
    EXPECT_EQ(r1[i].group, r8[i].group);
    ASSERT_EQ(r1[i].values.size(), r8[i].values.size());
    for (std::size_t v = 0; v < r1[i].values.size(); ++v) {
      if (std::isnan(r1[i].values[v])) {
        EXPECT_TRUE(std::isnan(r8[i].values[v]));
      } else {
        EXPECT_EQ(r1[i].values[v], r8[i].values[v]) << "case " << i;
      }
    }
  }
  // And so is the serialized report (the CI acceptance bar).
  std::ostringstream json1, json8;
  write_report_json(serial, json1);
  write_report_json(parallel, json8);
  EXPECT_EQ(json1.str(), json8.str());
}

TEST(CampaignRunner, StreamingMatchesMaterializedOracle) {
  // Oracle: materialize the jobs=1 case records, fold them through
  // fresh aggregates in case order, and demand bitwise-identical stats
  // from the parallel streaming run for any worker count.
  const ScenarioSpec spec = mixed_spec();
  CampaignReport reference;
  const std::vector<CaseRecord> records = collect(spec, {.jobs = 1}, &reference);

  for (const int jobs : {2, 3, 8}) {
    const CampaignReport streamed = run_campaign(spec, {.jobs = jobs});
    ASSERT_EQ(streamed.groups.size(), reference.groups.size());

    // Rebuild the aggregates from the materialized record vector.
    std::vector<std::vector<MetricAggregate>> rebuilt;
    for (const GroupAggregate& g : reference.groups) {
      std::vector<MetricAggregate> metrics;
      for (const MetricAggregate& m : g.metrics)
        metrics.push_back({m.name, {}, P2Quantile(0.5), P2Quantile(0.95)});
      rebuilt.push_back(std::move(metrics));
    }
    for (const CaseRecord& r : records) {
      for (std::size_t v = 0; v < r.values.size(); ++v) {
        if (std::isnan(r.values[v])) continue;
        MetricAggregate& m = rebuilt[r.group][v];
        m.acc.add(r.values[v]);
        m.p50.add(r.values[v]);
        m.p95.add(r.values[v]);
      }
    }

    for (std::size_t g = 0; g < streamed.groups.size(); ++g) {
      for (std::size_t i = 0; i < streamed.groups[g].metrics.size(); ++i) {
        const MetricAggregate& a = streamed.groups[g].metrics[i];
        const MetricAggregate& b = rebuilt[g][i];
        EXPECT_EQ(a.acc.count(), b.acc.count());
        if (a.acc.count() == 0) continue;
        // Bitwise equality: the streaming path folds in case order, so
        // the floating-point accumulation sequence is identical.
        EXPECT_EQ(a.acc.mean(), b.acc.mean()) << a.name << " jobs=" << jobs;
        EXPECT_EQ(a.acc.stddev(), b.acc.stddev()) << a.name;
        EXPECT_EQ(a.acc.min(), b.acc.min()) << a.name;
        EXPECT_EQ(a.acc.max(), b.acc.max()) << a.name;
        EXPECT_EQ(a.p50.value(), b.p50.value()) << a.name;
        EXPECT_EQ(a.p95.value(), b.p95.value()) << a.name;
      }
    }
  }
}

TEST(CampaignRunner, ShardPartitionUnionEqualsFullRun) {
  const ScenarioSpec spec = mixed_spec();
  const std::vector<CaseRecord> full = collect(spec, {.jobs = 2});

  std::vector<CaseRecord> unioned;
  std::size_t executed_total = 0;
  for (int shard = 0; shard < 3; ++shard) {
    CampaignReport report;
    RunnerOptions opt;
    opt.jobs = 2;
    opt.shard_index = shard;
    opt.shard_count = 3;
    const std::vector<CaseRecord> part = collect(spec, opt, &report);
    EXPECT_EQ(report.total_cases, full.size());
    EXPECT_EQ(part.size(), report.executed_cases);
    executed_total += report.executed_cases;
    for (const CaseRecord& r : part) {
      EXPECT_EQ(r.index % 3, static_cast<std::size_t>(shard));
      unioned.push_back(r);
    }
  }
  EXPECT_EQ(executed_total, full.size());

  std::sort(unioned.begin(), unioned.end(),
            [](const CaseRecord& a, const CaseRecord& b) {
              return a.index < b.index;
            });
  ASSERT_EQ(unioned.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(unioned[i].index, full[i].index);
    EXPECT_EQ(unioned[i].group, full[i].group);
    ASSERT_EQ(unioned[i].values.size(), full[i].values.size());
    for (std::size_t v = 0; v < full[i].values.size(); ++v) {
      if (std::isnan(full[i].values[v])) {
        EXPECT_TRUE(std::isnan(unioned[i].values[v]));
      } else {
        EXPECT_EQ(unioned[i].values[v], full[i].values[v]);
      }
    }
  }
}

TEST(CampaignRunner, PlatformArtifactsAreShared) {
  // 2 cells x 2 replications = 4 distinct platforms; the remaining
  // 24 - 4 case lookups must be cache hits (jobs=1: no benign races).
  const ScenarioSpec spec = mixed_spec();
  const CampaignReport report = run_campaign(spec, {.jobs = 1});
  EXPECT_EQ(report.platform_builds, 4u);
  EXPECT_EQ(report.platform_cache_hits, report.total_cases - 4u);
}

TEST(CampaignRunner, RejectsBadRunnerOptions) {
  const ScenarioSpec spec = mixed_spec();
  RunnerOptions opt;
  opt.shard_index = 2;
  opt.shard_count = 2;
  EXPECT_THROW((void)run_campaign(spec, opt), Error);
  opt = {};
  opt.jobs = -1;
  EXPECT_THROW((void)run_campaign(spec, opt), Error);
  opt = {};
  opt.chunk = 0;
  EXPECT_THROW((void)run_campaign(spec, opt), Error);
}

TEST(CampaignRunner, MissingReferencedFileThrows) {
  const ScenarioSpec spec = from_text(
      "dls-campaign 1\n"
      "platform file path=/nonexistent.platform\n"
      "workload none\n");
  EXPECT_THROW((void)run_campaign(spec, {.jobs = 1}), Error);
}

TEST(CampaignRunner, ScenariosWithEqualWorkloadParamsArePaired) {
  // The workload seed stream is scenario-independent: two scenarios
  // with identical arrival parameters replay literally the same
  // arrivals per replication — the property every static-vs-dynamic
  // degradation report rests on.
  const ScenarioSpec spec = from_text(
      "dls-campaign 1\n"
      "seed 5\nreplications 2\nmethod g\nobjective sum\n"
      "platform generate clusters=5 connected=1\n"
      "workload poisson label=a arrivals=15 rate=1\n"
      "workload poisson label=b arrivals=15 rate=1\n");
  const std::vector<CaseRecord> records = collect(spec, {.jobs = 1});
  ASSERT_EQ(records.size(), 4u);  // scenario a rep 0,1 then b rep 0,1
  for (int rep = 0; rep < 2; ++rep) {
    const CaseRecord& a = records[rep];
    const CaseRecord& b = records[2 + rep];
    ASSERT_EQ(a.values.size(), b.values.size());
    for (std::size_t v = 0; v < a.values.size(); ++v) {
      if (std::isnan(a.values[v])) {
        EXPECT_TRUE(std::isnan(b.values[v]));
      } else {
        EXPECT_EQ(a.values[v], b.values[v]) << "rep " << rep << " value " << v;
      }
    }
  }
}

TEST(CampaignRunner, CsvQuotesLabelsContainingCommas) {
  // Two varying generate axes derive comma-joined labels; the CSV
  // emitter must quote them so columns stay aligned.
  const ScenarioSpec spec = from_text(
      "dls-campaign 1\nmethod g\n"
      "platform generate clusters=4,5 connectivity=0.4,0.6 connected=1\n"
      "workload none\n");
  const CampaignReport report = run_campaign(spec, {.jobs = 1});
  std::ostringstream csv;
  write_report_csv(report, csv);
  std::istringstream lines(csv.str());
  std::string line;
  std::getline(lines, line);
  const auto count_unquoted_commas = [](const std::string& s) {
    int commas = 0;
    bool quoted = false;
    for (const char c : s) {
      if (c == '"') quoted = !quoted;
      if (c == ',' && !quoted) ++commas;
    }
    return commas;
  };
  const int header_commas = count_unquoted_commas(line);
  while (std::getline(lines, line)) {
    EXPECT_EQ(count_unquoted_commas(line), header_commas) << line;
  }
  EXPECT_NE(csv.str().find("\"gen:clusters=4,connectivity=0.4\""),
            std::string::npos);
}

TEST(CampaignRunner, MethodAxisGatesTheOfflineLpWork) {
  // A g-only campaign must not report (or pay for) the LP-based
  // rounding heuristics: the metric list carries just ok/ratio_g/lp.
  const ScenarioSpec spec = from_text(
      "dls-campaign 1\nmethod g\n"
      "platform generate clusters=4 connected=1\nworkload none\n");
  const CampaignReport report = run_campaign(spec, {.jobs = 1});
  ASSERT_EQ(report.groups.size(), 1u);
  std::vector<std::string> names;
  for (const MetricAggregate& m : report.groups[0].metrics) names.push_back(m.name);
  EXPECT_EQ(names, (std::vector<std::string>{"ok", "ratio_g", "lp_bound"}));
  EXPECT_EQ(report.groups[0].metrics[0].acc.mean(), 1.0);  // case ran ok
}

TEST(CampaignRunner, SinkExceptionsPropagateInsteadOfDeadlocking) {
  // A throwing case_sink must surface as an error from run_campaign —
  // not stall the reorder buffer with a position that never arrives.
  const ScenarioSpec spec = mixed_spec();
  for (const int jobs : {1, 4}) {
    RunnerOptions opt;
    opt.jobs = jobs;
    int delivered = 0;
    opt.case_sink = [&delivered](const CampaignReport&, const CaseRecord&) {
      if (++delivered == 3) throw Error("sink exploded");
    };
    EXPECT_THROW((void)run_campaign(spec, opt), Error) << "jobs=" << jobs;
  }
}

TEST(CampaignRunner, SimWindowUnitsReachTheEngine) {
  // rate-model sim + bounded-window sharing: the spec's window size
  // must change the replay. The platform needs latency: BoundedWindow
  // caps each connection at window/RTT, so a zero-latency platform
  // leaves any window vacuous.
  const char* base =
      "dls-campaign 1\nseed 4\nmethod lprg\nobjective maxmin\n"
      "rate-model sim\npolicy window\n"
      "platform generate clusters=6 heterogeneity=0.8 latency=20 connected=1\n"
      "workload poisson arrivals=15 rate=2 mean-load=2000\n";
  ScenarioSpec tight = from_text(base);
  tight.sim_window_units = 1.0;
  ScenarioSpec loose = from_text(base);
  loose.sim_window_units = 200.0;
  std::ostringstream a, b;
  write_report_json(run_campaign(tight, {.jobs = 1}), a);
  write_report_json(run_campaign(loose, {.jobs = 1}), b);
  EXPECT_NE(a.str(), b.str());
}

TEST(CampaignRunner, ChunkSizeNeverChangesTheReport) {
  const ScenarioSpec spec = mixed_spec();
  std::ostringstream a, b;
  RunnerOptions opt;
  opt.jobs = 4;
  opt.chunk = 1;
  write_report_json(run_campaign(spec, opt), a);
  opt.chunk = 5;
  write_report_json(run_campaign(spec, opt), b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(CampaignRunner, ExhaustUnitsInvariantToJobsChunkAndShards) {
  // 80 replications with exhaust take/drop: every offline case runs
  // with its drop sibling as one two-case unit. Every worker count and
  // chunk must reproduce the --jobs 1 report and case stream bit for
  // bit, a 2-way and a 3-way shard union must reproduce the unsharded
  // stream, and no shard may split a unit.
  const ScenarioSpec spec = from_text(
      "dls-campaign 1\n"
      "name exhaust-units\n"
      "seed 11\n"
      "replications 80\n"
      "objective maxmin\n"
      "method g lpr lprg\n"
      "exhaust take drop\n"
      "platform grid clusters=5\n"
      "workload none\n");
  const auto stream = [&](const RunnerOptions& opt, std::string* json) {
    std::ostringstream cases;
    RunnerOptions o = opt;
    o.case_sink = [&cases](const CampaignReport& report, const CaseRecord& r) {
      write_case_json(report, r, cases);
    };
    const CampaignReport report = run_campaign(spec, o);
    if (json != nullptr) {
      std::ostringstream os;
      write_report_json(report, os);
      *json = os.str();
    }
    return cases.str();
  };
  std::string json1;
  const std::string cases1 = stream({.jobs = 1}, &json1);
  EXPECT_EQ(std::count(cases1.begin(), cases1.end(), '\n'), 160);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}}) {
    std::string json3;
    EXPECT_EQ(stream({.jobs = 3, .chunk = chunk}, &json3), cases1) << chunk;
    EXPECT_EQ(json3, json1) << "chunk " << chunk;
  }

  const auto sorted_lines = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  CampaignReport shape;
  const std::vector<CaseDef> defs = expand_cases(spec, shape);
  for (const int n : {2, 3}) {
    std::string unioned;
    std::map<std::size_t, int> unit_shard;
    for (int shard = 0; shard < n; ++shard) {
      const std::string part =
          stream({.jobs = 3, .shard_index = shard, .shard_count = n}, nullptr);
      unioned += part;
      for (const std::string& line : sorted_lines(part)) {
        const std::size_t index = std::stoul(line.substr(line.find(':') + 1));
        const auto it = unit_shard.emplace(defs[index].unit, shard).first;
        EXPECT_EQ(it->second, shard) << "unit " << it->first << " split";
      }
    }
    EXPECT_EQ(unit_shard.size(), 80u) << n << "-way split";
    EXPECT_EQ(sorted_lines(unioned), sorted_lines(cases1)) << n << "-way split";
  }
}

}  // namespace
}  // namespace dls::campaign
