// Declarative scenario campaigns: one spec format for every experiment
// surface in the repo.
//
// The paper's §6 evaluation is a grid campaign (Table 1 x heuristics x
// replications), and the extensions multiplied the scenario space: sweep,
// online arrivals and platform-dynamics replays each grew their own
// config structs, flag parsing and replication loops. A ScenarioSpec
// makes the whole matrix a first-class object:
//
//   * platform axis — explicit generator cells, Table-1 grid sampling
//     cells, or `.platform` files;
//   * scenario axis — workloads (none = offline heuristic sweep, batch,
//     Poisson, ON/OFF, or a `.workload` trace), each optionally paired
//     with platform dynamics (a generated churn scenario or an `.events`
//     trace);
//   * method / objective / warm-policy / greedy-exhaust axes;
//   * replications x seed streams (see runner.hpp for the derivation).
//
// Specs are parsed from a line-oriented `.campaign` text format in the
// same style (and with the same line-numbered diagnostics) as `.events`
// and `.workload`:
//
//   dls-campaign 1
//   name example
//   seed 42
//   replications 3
//   objective maxmin sum
//   method g lprg
//   platform generate clusters=6 connectivity=0.5 connected=1
//   platform grid clusters=15
//   workload none
//   workload poisson arrivals=40 rate=1 mean-load=500
//   dynamics scenario event-rate=0.05 severity=0.5 horizon=300
//   loads count=2,8 mix=uniform objective=sum,maxmin weight-spread=0.5
//
// A `loads` line is the multi-load axis (ISSUE 8): its count, mix and
// objective comma lists expand into one scenario cell per combination,
// each solving one joint N-load LP per (platform, replication).
//
// A `dynamics` line attaches to the workload line directly above it; a
// `dynamics` line with no stream workload to attach to is a contradiction
// and is rejected with its line number. write_campaign emits a canonical
// expanded form (one line per platform cell, explicit labels, 17
// significant digits) whose save/load round trip is bit-exact.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/heuristics.hpp"
#include "core/loads.hpp"
#include "core/problem.hpp"
#include "online/engine.hpp"
#include "online/workload.hpp"
#include "platform/generator.hpp"
#include "sim/simulator.hpp"

namespace dls::campaign {

/// Scheduling methods a campaign can put on its method axis. Lprr is
/// offline-only (it has no online rescheduler); a spec listing lprr
/// together with a stream workload is rejected at parse time.
enum class Method : unsigned char { G, Lpr, Lprg, Lprr, Lp };

[[nodiscard]] const char* to_string(Method method);

/// The lowercase `.campaign` spelling of an objective ("maxmin"/"sum");
/// core::to_string prints the paper's uppercase names.
[[nodiscard]] const char* axis_name(core::Objective objective);

// The `.campaign` spellings of the remaining axis/option enums — the
// single string table shared by the writer, the runner's group labels
// and the CLI adapters.
[[nodiscard]] const char* to_string(online::WarmPolicy warm);
[[nodiscard]] const char* to_string(core::LocalExhaustPolicy exhaust);
[[nodiscard]] const char* to_string(online::RateModel model);
[[nodiscard]] const char* to_string(sim::SharingPolicy policy);

// Their inverses: set `out` and return true when `token` is one of the
// spellings above. The `.campaign` reader and the CLI flags parse
// through these, each naming its own line or flag on failure.
[[nodiscard]] bool parse_warm(const std::string& token, online::WarmPolicy& out);
[[nodiscard]] bool parse_rate_model(const std::string& token, online::RateModel& out);
[[nodiscard]] bool parse_policy(const std::string& token, sim::SharingPolicy& out);

/// One cell of the platform axis.
struct PlatformSource {
  enum class Kind : unsigned char {
    File,      ///< a `.platform` file, loaded once and shared
    Generate,  ///< explicit GeneratorParams (comma lists in the spec
               ///< expand into one cell per combination)
    Grid,      ///< Table-1 grid: the non-K parameters are re-sampled per
               ///< (cell, replication) from the platform seed stream
  };
  Kind kind = Kind::Generate;
  std::string label;                 ///< group label in reports; stable
  std::string path;                  ///< Kind::File
  platform::GeneratorParams params;  ///< Kind::Generate
  int grid_clusters = 10;            ///< Kind::Grid: K
};

/// One value of the scenario axis: a workload and its (optional)
/// platform-dynamics stream.
struct WorkloadSource {
  enum class Kind : unsigned char {
    None,     ///< offline steady-state case (the §6 sweep)
    Batch,    ///< `count` applications all arriving at t = 0
    Poisson,  ///< open-system Poisson arrivals
    OnOff,    ///< bursty ON/OFF arrivals
    Trace,    ///< a `.workload` file
    Loads,    ///< N concurrent loads solved jointly (`loads` axis, ISSUE 8)
  };
  enum class DynKind : unsigned char {
    None,      ///< static platform
    Scenario,  ///< generated failure/drift/churn mix (dynamics::scenario_trace)
    Trace,     ///< an `.events` file
  };

  Kind kind = Kind::None;
  std::string label;
  online::PoissonParams poisson;  ///< Kind::Poisson; .count doubles as the
                                  ///< Kind::Batch application count
  online::OnOffParams onoff;      ///< Kind::OnOff
  std::string path;               ///< Kind::Trace

  DynKind dyn = DynKind::None;
  double event_rate = 0.02;   ///< DynKind::Scenario
  double severity = 0.5;      ///< DynKind::Scenario
  double horizon = 0.0;       ///< DynKind::Scenario; 0 = auto (2 * last
                              ///< arrival + 100, like `dls dynamics`)
  std::string events_path;    ///< DynKind::Trace

  // Kind::Loads: one cell of the `loads` axis. A `loads` spec line is a
  // cross product (count x mix x objective comma lists expand into one
  // scenario per combination). Loads cells ignore the spec's
  // method/objective/warm/exhaust axes — each cell carries its own
  // multi-load objective — and sample the load set per replication from
  // the loads seed stream (plan.hpp).
  int load_count = 4;
  std::string load_mix = "uniform";  ///< uniform | hotspot source placement
  core::MultiObjective multi_objective = core::MultiObjective::WeightedSum;
  double weight_spread = 0.5;  ///< load weights ~ uniform 1 +- spread
  double ratio_spread = 0.0;   ///< data ratios ~ uniform 1 +- spread
  double cap_factor = 0.0;     ///< cap = factor * source speed; 0 = uncapped

  [[nodiscard]] bool offline() const { return kind == Kind::None; }
  /// True for workloads that stream arrivals through the online engine;
  /// platform dynamics can only attach to these (loads cells, like
  /// offline cells, replay no timeline).
  [[nodiscard]] bool stream() const {
    return kind != Kind::None && kind != Kind::Loads;
  }
};

/// The declarative campaign: axes x replications, one seed.
struct ScenarioSpec {
  std::string name = "campaign";
  std::uint64_t seed = 1;
  int replications = 1;

  std::vector<PlatformSource> platforms;       ///< >= 1 after parsing
  std::vector<WorkloadSource> scenarios;       ///< >= 1 after parsing
  std::vector<Method> methods{Method::G, Method::Lpr, Method::Lprg};
  std::vector<core::Objective> objectives{core::Objective::MaxMin};
  std::vector<online::WarmPolicy> warm{online::WarmPolicy::Auto};
  /// Greedy local-exhaust axis; applies to offline cases (stream cases
  /// use the first entry).
  std::vector<core::LocalExhaustPolicy> exhaust{
      core::LocalExhaustPolicy::TakeRemaining};

  double payoff_spread = 0.5;         ///< offline cases (exp::CaseConfig)
  online::RateModel rate_model = online::RateModel::Fluid;
  sim::SharingPolicy sim_policy = sim::SharingPolicy::MaxMin;
  /// Per-connection window units for SharingPolicy::BoundedWindow under
  /// rate-model sim (`window` in the spec, `--window` on the CLI).
  double sim_window_units = 50.0;

  /// Throws dls::Error on structurally impossible specs (no platforms,
  /// no scenarios, replications < 1, lprr with a stream workload, empty
  /// axes). The parser runs this too, with line-number context.
  void validate() const;
};

/// Writes the canonical `.campaign` form (labels explicit, platform
/// cells expanded, doubles at 17 significant digits). write -> read ->
/// write is byte-identical.
void write_campaign(const ScenarioSpec& spec, std::ostream& os);

/// Reads a `.campaign` stream; throws dls::Error naming the line and the
/// defect (bad header, unknown keyword or key, malformed number,
/// dynamics without a stream workload, lprr with a stream workload, ...).
[[nodiscard]] ScenarioSpec read_campaign(std::istream& is);

[[nodiscard]] std::string to_text(const ScenarioSpec& spec);
[[nodiscard]] ScenarioSpec from_text(const std::string& text);

/// Reads the first readable candidate path (bench drivers run from the
/// repo root or from build/, so they pass both spellings); throws
/// dls::Error naming every candidate when none opens.
[[nodiscard]] ScenarioSpec read_campaign_file(
    const std::vector<std::string>& candidates);

}  // namespace dls::campaign
