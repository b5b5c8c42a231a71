#include "campaign/plan.hpp"

#include <algorithm>
#include <utility>

#include "campaign/runner.hpp"

namespace dls::campaign {

namespace {

constexpr std::uint64_t kPlatformSalt = 0x706c6174ULL;  // "plat"
constexpr std::uint64_t kPayoffSalt = 0x7061796fULL;    // "payo"
constexpr std::uint64_t kWorkloadSalt = 0x776f726bULL;  // "work"
constexpr std::uint64_t kEventsSalt = 0x6576656eULL;    // "even"
constexpr std::uint64_t kLoadsSalt = 0x6c6f6164ULL;     // "load"

std::vector<std::string> offline_metric_names(const ScenarioSpec& spec) {
  std::vector<std::string> names{"ok"};
  for (const Method m : {Method::G, Method::Lpr, Method::Lprg, Method::Lprr}) {
    if (has_method(spec, m))
      names.push_back(std::string("ratio_") + to_string(m));
  }
  if (has_method(spec, Method::G) && has_method(spec, Method::Lprg))
    names.push_back("lprg_over_g");
  names.push_back("lp_bound");
  return names;
}

/// Deterministic only (no wall times): loads reports must stay
/// bit-identical across --jobs and --shard splits.
std::vector<std::string> loads_metric_names() {
  return {"ok",   "objective", "sum_throughput", "min_weighted",
          "jain", "lp_solves", "lp_iterations"};
}

std::vector<std::string> stream_metric_names() {
  return {"ok",           "completed",      "aborted",
          "rejected",     "queued_arrivals", "reschedules",
          "warm_solves",  "repaired_solves", "cold_solves",
          "platform_events", "makespan",     "total_work",
          "mean_response", "mean_wait",      "mean_slowdown",
          "mean_utilization", "mean_fairness", "peak_active",
          "peak_queued"};
}

}  // namespace

bool has_method(const ScenarioSpec& spec, Method m) {
  return std::find(spec.methods.begin(), spec.methods.end(), m) !=
         spec.methods.end();
}

std::uint64_t mix_seed(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

std::uint64_t platform_stream_seed(const ScenarioSpec& spec, int cell, int rep) {
  return mix_seed(mix_seed(mix_seed(spec.seed, kPlatformSalt), cell), rep);
}

std::uint64_t payoff_stream_seed(const ScenarioSpec& spec, int cell, int rep) {
  return mix_seed(platform_stream_seed(spec, cell, rep), kPayoffSalt);
}

std::uint64_t workload_stream_seed(const ScenarioSpec& spec, int rep) {
  return mix_seed(mix_seed(spec.seed, kWorkloadSalt), rep);
}

std::uint64_t events_stream_seed(const ScenarioSpec& spec, int cell, int scen,
                                 int rep) {
  return mix_seed(
      mix_seed(mix_seed(mix_seed(spec.seed, kEventsSalt), cell), scen), rep);
}

std::uint64_t loads_stream_seed(const ScenarioSpec& spec, int cell, int rep) {
  return mix_seed(mix_seed(mix_seed(spec.seed, kLoadsSalt), cell), rep);
}

std::uint64_t spec_fingerprint(const ScenarioSpec& spec) {
  const std::string text = to_text(spec);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<CaseDef> expand_cases(const ScenarioSpec& spec,
                                  CampaignReport& report) {
  const std::vector<std::string> offline_names = offline_metric_names(spec);
  const std::vector<std::string> stream_names = stream_metric_names();
  std::vector<CaseDef> defs;
  std::size_t unit = 0;

  const auto add_group = [&](const CaseDef& proto, bool offline,
                             const std::vector<std::string>& names) {
    GroupAggregate g;
    g.platform = spec.platforms[proto.cell].label;
    g.scenario = spec.scenarios[proto.scen].label;
    g.objective = axis_name(spec.objectives[proto.objective]);
    g.offline = offline;
    g.method = offline ? "*" : to_string(spec.methods[proto.method]);
    g.warm = offline ? "*" : to_string(spec.warm[proto.warm]);
    g.exhaust = offline ? to_string(spec.exhaust[proto.exhaust]) : "*";
    for (const std::string& name : names)
      g.metrics.push_back({name, {}, P2Quantile(0.5), P2Quantile(0.95)});
    report.groups.push_back(std::move(g));
    return report.groups.size() - 1;
  };

  for (int cell = 0; cell < static_cast<int>(spec.platforms.size()); ++cell) {
    for (int scen = 0; scen < static_cast<int>(spec.scenarios.size()); ++scen) {
      // A loads cell carries its own multi-load objective and ignores
      // the method/objective/warm/exhaust axes: one group per (cell,
      // scenario), one joint solve per replication.
      if (spec.scenarios[scen].kind == WorkloadSource::Kind::Loads) {
        CaseDef proto;
        proto.cell = cell;
        proto.scen = scen;
        proto.loads = true;
        GroupAggregate g;
        g.platform = spec.platforms[cell].label;
        g.scenario = spec.scenarios[scen].label;
        g.objective = core::to_string(spec.scenarios[scen].multi_objective);
        g.method = "*";
        g.warm = "*";
        g.exhaust = "*";
        g.loads = true;
        for (const std::string& name : loads_metric_names())
          g.metrics.push_back({name, {}, P2Quantile(0.5), P2Quantile(0.95)});
        report.groups.push_back(std::move(g));
        proto.group = report.groups.size() - 1;
        for (int rep = 0; rep < spec.replications; ++rep) {
          proto.rep = rep;
          proto.unit = unit++;
          defs.push_back(proto);
        }
        continue;
      }
      const bool offline = spec.scenarios[scen].offline();
      for (int obj = 0; obj < static_cast<int>(spec.objectives.size()); ++obj) {
        CaseDef proto;
        proto.cell = cell;
        proto.scen = scen;
        proto.objective = obj;
        proto.offline = offline;
        if (offline) {
          // Groups in exhaust order; then, per replication, the exhaust
          // siblings as adjacent cases of one unit. Each group still
          // sees its cases in replication order.
          const int exhausts = static_cast<int>(spec.exhaust.size());
          const std::size_t first_group = report.groups.size();
          for (int ex = 0; ex < exhausts; ++ex) {
            proto.exhaust = ex;
            add_group(proto, true, offline_names);
          }
          for (int rep = 0; rep < spec.replications; ++rep) {
            proto.rep = rep;
            proto.unit = unit++;
            for (int ex = 0; ex < exhausts; ++ex) {
              proto.exhaust = ex;
              proto.group = first_group + static_cast<std::size_t>(ex);
              defs.push_back(proto);
            }
          }
        } else {
          for (int w = 0; w < static_cast<int>(spec.warm.size()); ++w) {
            for (int m = 0; m < static_cast<int>(spec.methods.size()); ++m) {
              proto.warm = w;
              proto.method = m;
              proto.group = add_group(proto, false, stream_names);
              for (int rep = 0; rep < spec.replications; ++rep) {
                proto.rep = rep;
                proto.unit = unit++;
                defs.push_back(proto);
              }
            }
          }
        }
      }
    }
  }
  return defs;
}

}  // namespace dls::campaign
