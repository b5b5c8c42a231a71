#include "campaign/runner.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "campaign/exec.hpp"
#include "campaign/plan.hpp"
#include "obs/export.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace dls::campaign {

namespace {

// ---- streaming ordered reduction --------------------------------------------

/// Restores case order between the dynamically-scheduled workers and
/// the aggregates: records wait in a bounded buffer until every earlier
/// case has been folded. Records arrive one execution unit at a time (a
/// case, or an offline case's exhaust siblings), each unit a run of
/// consecutive shard positions, and units are dispatched in ascending
/// order.
///
/// Invariant: the unit that holds the next expected position never
/// waits; every other unit waits while `capacity` records are pending.
/// That unit starts at the next position (its earlier positions would
/// otherwise be folded, hence pushed), and its worker is never stuck on
/// an earlier unit (units before it are already pushed), so the buffer
/// cannot deadlock. Memory stays O(workers * chunk) instead of
/// O(cases).
class OrderedReducer {
public:
  OrderedReducer(CampaignReport& report, const RunnerOptions& options,
                 std::size_t capacity)
      : report_(&report), options_(&options),
        capacity_(std::max<std::size_t>(capacity, 1)) {}

  /// One unit's records, keyed by shard position in ascending order.
  void push(std::vector<std::pair<std::size_t, CaseRecord>> unit) {
    std::unique_lock lock(mutex_);
    const std::size_t first = unit.front().first;
    cv_.wait(lock, [&] { return first == next_ || pending_.size() < capacity_; });
    for (auto& [pos, record] : unit) pending_.emplace(pos, std::move(record));
    const std::size_t before = next_;
    auto it = pending_.begin();
    while (it != pending_.end() && it->first == next_) {
      apply(it->second);
      ++next_;
      it = pending_.erase(it);
    }
    if (next_ != before) cv_.notify_all();
  }

  /// First exception a case_sink threw; rethrown by run_campaign. The
  /// reduction itself keeps draining so no worker deadlocks on a
  /// next-position that would otherwise never arrive.
  [[nodiscard]] std::exception_ptr sink_error() const { return sink_error_; }

private:
  void apply(const CaseRecord& record) {
    fold_case(*report_, record);
    if (options_->case_sink && !sink_error_ && !record.values.empty()) {
      try {
        options_->case_sink(*report_, record);
      } catch (...) {
        sink_error_ = std::current_exception();
      }
    }
  }

  CampaignReport* report_;
  const RunnerOptions* options_;
  std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t next_ = 0;
  std::map<std::size_t, CaseRecord> pending_;
  std::exception_ptr sink_error_;
};

}  // namespace

void fold_case(CampaignReport& report, const CaseRecord& record) {
  GroupAggregate& group = report.groups[record.group];
  for (std::size_t i = 0; i < record.values.size(); ++i) {
    const double v = record.values[i];
    if (std::isnan(v)) continue;
    MetricAggregate& metric = group.metrics[i];
    metric.acc.add(v);
    metric.p50.add(v);
    metric.p95.add(v);
  }
}

CampaignReport run_campaign(const ScenarioSpec& spec, const RunnerOptions& options) {
  spec.validate();
  require(options.jobs >= 0, "run_campaign: negative job count");
  require(options.shard_count >= 1 && options.shard_index >= 0 &&
              options.shard_index < options.shard_count,
          "run_campaign: shard index out of range");
  require(options.chunk >= 1, "run_campaign: chunk must be >= 1");

  CampaignReport report;
  report.name = spec.name;
  report.shard_index = options.shard_index;
  report.shard_count = options.shard_count;
  report.replications = spec.replications;
  const std::vector<CaseDef> defs = expand_cases(spec, report);
  report.total_cases = defs.size();

  // Shard partition: unit ordinal mod shard_count, so a shard runs whole
  // units (for a spec with one exhaust value, case index mod
  // shard_count). Unit u covers mine[unit_begin[u] .. unit_begin[u+1]).
  std::vector<std::size_t> mine;
  std::vector<std::size_t> unit_begin;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (defs[i].unit % static_cast<std::size_t>(options.shard_count) !=
        static_cast<std::size_t>(options.shard_index))
      continue;
    if (mine.empty() || defs[mine.back()].unit != defs[i].unit)
      unit_begin.push_back(mine.size());
    mine.push_back(i);
  }
  unit_begin.push_back(mine.size());
  report.executed_cases = mine.size();
  const std::size_t units = unit_begin.size() - 1;

  // One executor for the whole campaign: offline cases on any worker
  // share the artifact cache and the batch solver's column-structure
  // cache; each worker keeps its own solve arena.
  CaseExecutor exec(spec);
  std::mutex error_mutex;
  std::exception_ptr first_error;

  const std::size_t workers =
      options.jobs == 0 ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
                        : static_cast<std::size_t>(options.jobs);
  OrderedReducer reducer(report, options,
                         std::max<std::size_t>(64, 4 * workers * options.chunk));

  const auto body = [&](std::size_t u) {
    const std::size_t first = unit_begin[u];
    const std::size_t last = unit_begin[u + 1];
    std::vector<std::pair<std::size_t, CaseRecord>> records;
    for (std::size_t pos = first; pos < last; ++pos) {
      const CaseDef& def = defs[mine[pos]];
      CaseRecord record;
      record.index = mine[pos];
      record.group = def.group;
      record.rep = def.rep;
      records.emplace_back(pos, std::move(record));
    }
    try {
      // A unit's cases are adjacent in the plan, so they are one span.
      std::vector<std::vector<double>> values =
          exec.run_unit({&defs[mine[first]], last - first});
      for (std::size_t k = 0; k < records.size(); ++k)
        records[k].second.values = std::move(values[k]);
    } catch (...) {
      std::scoped_lock lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      // The records stay tombstones (empty values, skipped by apply()),
      // which keeps the ordered reduction flowing so no worker blocks
      // forever waiting on these positions.
    }
    reducer.push(std::move(records));
  };

  if (options.jobs == 1 || units <= 1) {
    for (std::size_t u = 0; u < units; ++u) body(u);
  } else {
    ThreadPool pool(workers);
    parallel_for(pool, 0, units, body, options.chunk);
  }
  if (first_error) std::rethrow_exception(first_error);
  if (reducer.sink_error()) std::rethrow_exception(reducer.sink_error());

  report.platform_builds = exec.cache().builds();
  report.platform_cache_hits = exec.cache().hits();
  return report;
}

// ---- report emission --------------------------------------------------------

namespace {

std::string fmt17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A metric statistic, or `null` for the aggregate of nothing.
std::string json_stat(const MetricAggregate& m, double value) {
  if (m.acc.count() == 0) return "null";
  return fmt17(value);
}

/// RFC-4180-style quoting: generated platform labels legitimately
/// contain commas ("gen:clusters=4,connectivity=0.4").
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void write_report_json(const CampaignReport& report, std::ostream& os) {
  os << "{\"command\":\"campaign\",\"name\":\"" << obs::json_escape(report.name)
     << "\",\"shard\":\"" << report.shard_index << "/" << report.shard_count
     << "\",\"cases\":" << report.total_cases
     << ",\"executed\":" << report.executed_cases
     << ",\"replications\":" << report.replications << ",\"groups\":[";
  for (std::size_t g = 0; g < report.groups.size(); ++g) {
    const GroupAggregate& group = report.groups[g];
    if (g > 0) os << ',';
    os << "{\"platform\":\"" << obs::json_escape(group.platform)
       << "\",\"scenario\":\"" << obs::json_escape(group.scenario)
       << "\",\"objective\":\"" << group.objective
       << "\",\"method\":\"" << group.method
       << "\",\"warm\":\"" << group.warm
       << "\",\"exhaust\":\"" << group.exhaust
       << "\",\"kind\":\""
       << (group.loads ? "loads" : group.offline ? "offline" : "stream")
       << "\",\"metrics\":[";
    for (std::size_t i = 0; i < group.metrics.size(); ++i) {
      const MetricAggregate& m = group.metrics[i];
      if (i > 0) os << ',';
      os << "{\"name\":\"" << m.name << "\",\"count\":" << m.acc.count()
         << ",\"mean\":" << json_stat(m, m.acc.mean())
         << ",\"stddev\":" << json_stat(m, m.acc.stddev())
         << ",\"min\":" << json_stat(m, m.acc.min())
         << ",\"max\":" << json_stat(m, m.acc.max())
         << ",\"p50\":" << json_stat(m, m.p50.value())
         << ",\"p95\":" << json_stat(m, m.p95.value()) << "}";
    }
    os << "]}";
  }
  os << "]}\n";
}

void write_report_csv(const CampaignReport& report, std::ostream& os) {
  os << "platform,scenario,objective,method,warm,exhaust,metric,count,mean,"
        "stddev,min,max,p50,p95\n";
  for (const GroupAggregate& group : report.groups) {
    for (const MetricAggregate& m : group.metrics) {
      os << csv_field(group.platform) << ',' << csv_field(group.scenario) << ','
         << group.objective << ',' << group.method << ',' << group.warm << ','
         << group.exhaust << ',' << csv_field(m.name) << ',' << m.acc.count();
      const auto cell = [&](double v) {
        os << ',';
        if (m.acc.count() > 0) os << fmt17(v);
      };
      cell(m.acc.mean());
      cell(m.acc.stddev());
      cell(m.acc.min());
      cell(m.acc.max());
      cell(m.p50.value());
      cell(m.p95.value());
      os << '\n';
    }
  }
}

void write_report_text(const CampaignReport& report, std::ostream& os,
                       double wall_seconds) {
  os << "campaign '" << report.name << "': " << report.executed_cases << "/"
     << report.total_cases << " cases (shard " << report.shard_index << "/"
     << report.shard_count << ", " << report.replications
     << " replications), " << report.groups.size() << " groups, "
     << report.platform_builds << " platform builds + "
     << report.platform_cache_hits << " cache hits, "
     << TextTable::fmt(wall_seconds, 2) << "s\n";
  for (const GroupAggregate& group : report.groups) {
    os << "[platform=" << group.platform << " scenario=" << group.scenario
       << " objective=" << group.objective << " method=" << group.method
       << " warm=" << group.warm << " exhaust=" << group.exhaust << "]\n";
    TextTable table({"metric", "count", "mean", "stddev", "min", "max", "p50",
                     "p95"});
    for (const MetricAggregate& m : group.metrics) {
      table.add_row({m.name, std::to_string(m.acc.count()),
                     table_cell(m.acc, m.acc.mean(), 4),
                     table_cell(m.acc, m.acc.stddev(), 4),
                     table_cell(m.acc, m.acc.min(), 4),
                     table_cell(m.acc, m.acc.max(), 4),
                     table_cell(m.acc, m.p50.value(), 4),
                     table_cell(m.acc, m.p95.value(), 4)});
    }
    table.print(os);
  }
}

double group_metric_mean(const CampaignReport& report,
                         const std::string& scenario,
                         const std::string& metric) {
  for (const GroupAggregate& group : report.groups) {
    if (group.scenario != scenario) continue;
    for (const MetricAggregate& m : group.metrics)
      if (m.name == metric) return m.acc.mean();
  }
  return 0.0;
}

void write_case_json(const CampaignReport& report, const CaseRecord& record,
                     std::ostream& os) {
  const GroupAggregate& group = report.groups[record.group];
  os << "{\"case\":" << record.index << ",\"platform\":\""
     << obs::json_escape(group.platform) << "\",\"scenario\":\""
     << obs::json_escape(group.scenario) << "\",\"objective\":\"" << group.objective
     << "\",\"method\":\"" << group.method << "\",\"warm\":\"" << group.warm
     << "\",\"exhaust\":\"" << group.exhaust << "\",\"rep\":" << record.rep
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < record.values.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << group.metrics[i].name << "\":";
    if (std::isnan(record.values[i]))
      os << "null";
    else
      os << fmt17(record.values[i]);
  }
  os << "}}\n";
}

}  // namespace dls::campaign
