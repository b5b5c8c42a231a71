// Case execution, split out of the runner so that any process holding
// the spec can execute an arbitrary subset of the case matrix: the
// in-process runner drains its shard, a distributed worker drains the
// case-index ranges its coordinator leases to it (`src/dist/worker`).
//
// The executor is thread-safe: generated platforms are cached per
// (cell, replication) and shared by every case that differs only in
// scenario/method/objective; `.platform`, `.workload` and `.events`
// files are loaded once; offline cases share one lp::BatchSolver
// (per-thread arenas, one shared column analysis). Per-case values are
// a pure function of (spec, case index) — the bit-identity contract
// every execution surface builds on.
//
// Two entries: `run_unit` executes one execution unit of the plan
// (cases sharing a `CaseDef::unit` ordinal: a single case, or an offline
// case's exhaust siblings). The siblings differ only in the greedy's
// local-exhaust policy, so the unit solves their shared relaxation once
// (exp::run_sibling_cases) and returns each sibling the values a
// standalone run would, bit for bit. The in-process runner and the
// distributed worker call `run_unit`; `run` is the one-case unit, which
// the benchmark harness times per case.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/spec.hpp"
#include "lp/batch.hpp"

namespace dls::platform {
class Platform;
}
namespace dls::online {
struct Workload;
}
namespace dls::dynamics {
class EventTrace;
}

namespace dls::campaign {

/// Caches generated platforms per (cell, replication) and referenced
/// files once per campaign. Lookups race benignly: a missed entry is
/// rebuilt deterministically from its seed, so duplicated work never
/// changes a result.
class ArtifactCache {
public:
  explicit ArtifactCache(const ScenarioSpec& spec) : spec_(&spec) {}

  std::shared_ptr<const platform::Platform> platform_for(int cell, int rep);
  std::shared_ptr<const online::Workload> workload_file(const std::string& path);
  std::shared_ptr<const dynamics::EventTrace> events_file(const std::string& path);

  [[nodiscard]] std::size_t builds() const { return builds_; }
  [[nodiscard]] std::size_t hits() const { return hits_; }

private:
  platform::Platform build(const PlatformSource& src, int cell, int rep) const;

  static constexpr std::size_t kMaxEntries = 1024;

  const ScenarioSpec* spec_;
  std::mutex mutex_;
  std::map<std::pair<int, int>, std::shared_ptr<const platform::Platform>>
      platforms_;
  std::map<std::string, std::shared_ptr<const online::Workload>> workloads_;
  std::map<std::string, std::shared_ptr<const dynamics::EventTrace>> events_;
  std::size_t builds_ = 0;
  std::size_t hits_ = 0;
};

/// Executes cases of one campaign, owning the shared artifacts. `run`
/// may be called concurrently from any number of threads; the returned
/// values align with the case's group metric list (NaN = no honest
/// value, skipped by the aggregates). Throws dls::Error on unreadable
/// referenced files or solver failure — callers decide whether that
/// poisons the run (in-process runner) or just fails one leased range
/// (distributed worker).
class CaseExecutor {
public:
  explicit CaseExecutor(const ScenarioSpec& spec)
      : spec_(&spec), cache_(spec) {}

  [[nodiscard]] std::vector<double> run(const CaseDef& def);

  /// One execution unit: a single case of any kind, or offline cases
  /// that share one `CaseDef::unit` ordinal (throws dls::Error
  /// otherwise). Returns one value row per case, in `unit` order, each
  /// equal to run(case).
  [[nodiscard]] std::vector<std::vector<double>> run_unit(
      std::span<const CaseDef> unit);

  [[nodiscard]] ArtifactCache& cache() { return cache_; }

private:
  const ScenarioSpec* spec_;
  ArtifactCache cache_;
  lp::BatchSolver lps_;
};

}  // namespace dls::campaign
