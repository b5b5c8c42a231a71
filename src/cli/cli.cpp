#include "cli/cli.hpp"

#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "cli/args.hpp"
#include "core/heuristics.hpp"
#include "core/loads.hpp"
#include "dynamics/events.hpp"
#include "core/npc/reduction.hpp"
#include "core/schedule.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "exp/experiment.hpp"
#include "online/engine.hpp"
#include "platform/generator.hpp"
#include "platform/serialization.hpp"
#include "serve/daemon.hpp"
#include "sim/simulator.hpp"
#include "support/build_info.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace dls::cli {

namespace {

void print_usage(std::ostream& os) {
  os << "usage: dls <command> [options]\n"
        "commands:\n"
        "  generate   create a random platform (Table-1 style parameters)\n"
        "  solve      run a scheduling method on a platform file\n"
        "  simulate   solve, reconstruct the periodic schedule, execute it\n"
        "  campaign   run a declarative .campaign scenario matrix through\n"
        "             the sharded streaming runner; --serve <port> turns it\n"
        "             into a distributed coordinator (checkpoint/resume via\n"
        "             --checkpoint/--resume)\n"
        "  worker     execute case ranges for a campaign coordinator\n"
        "             (--connect host:port)\n"
        "  sweep      run heuristics over many random platforms in parallel\n"
        "             (--loads N solves joint N-load LPs instead;\n"
        "             --objective sum|maxmin|pf)\n"
        "  online     replay a stream of application arrivals with adaptive\n"
        "             warm-started rescheduling (--loads runs every arrival\n"
        "             concurrently in one shared multi-load LP)\n"
        "  dynamics   replay a workload against a platform-event trace\n"
        "             (failures, drift, churn) and report the degradation\n"
        "  serve      long-running scheduler daemon: HTTP /metrics, /health,\n"
        "             /stats plus a line protocol for arrive/depart/event;\n"
        "             --replay feeds a recorded .workload at --replay-speed x\n"
        "  reduce     build the NP-hardness instance from a graph file\n"
        "  help       show this message\n"
        "  --version  print build type, compiler and git revision\n"
        "see src/cli/cli.hpp for the full option list\n";
}

platform::Platform load_platform(const std::string& path) {
  std::ifstream in(path);
  require(static_cast<bool>(in), "cannot open platform file '" + path + "'");
  return platform::read_platform(in);
}

std::vector<double> resolve_payoffs(Args& args, int num_clusters) {
  std::vector<double> payoffs = args.get_double_list("payoffs");
  if (payoffs.empty()) payoffs.assign(num_clusters, 1.0);
  require(static_cast<int>(payoffs.size()) == num_clusters,
          "--payoffs: expected one value per cluster");
  return payoffs;
}

core::Objective resolve_objective(Args& args) {
  const std::string name = args.get_string("objective", "maxmin");
  if (name == "maxmin") return core::Objective::MaxMin;
  if (name == "sum") return core::Objective::Sum;
  throw Error("--objective: expected 'maxmin' or 'sum'");
}

/// --policy, shared by `simulate` and `online --rate-model sim`.
sim::SharingPolicy policy_from_args(Args& args, const std::string& fallback) {
  sim::SharingPolicy policy{};
  require(campaign::parse_policy(args.get_string("policy", fallback), policy),
          "--policy: expected paced|maxmin|tcp|window");
  return policy;
}

/// --warm, shared by `online`, `dynamics` and `serve`. `name` receives
/// the spelling for reporting.
online::WarmPolicy warm_from_args(Args& args, std::string* name = nullptr) {
  const std::string warm = args.get_string("warm", "auto");
  online::WarmPolicy policy{};
  require(campaign::parse_warm(warm, policy), "--warm: expected auto|never|always");
  if (name != nullptr) *name = warm;
  return policy;
}

struct Solved {
  core::Allocation allocation;
  double objective = 0.0;
  double bound = 0.0;
  std::string method;
};

Solved solve_with_method(const core::SteadyStateProblem& problem, Args& args) {
  const std::string method = args.get_string("method", "lprg");
  Rng rng(args.get_u64("seed", 1));
  Solved out{core::Allocation(problem.num_clusters()), 0.0, 0.0, method};

  // One relaxation serves the bound and, for lpr/lprg, the rounding.
  const core::Relaxation relaxation = core::solve_relaxation(problem);
  const auto bound = core::lp_upper_bound(problem, relaxation);
  require(bound.status == lp::SolveStatus::Optimal, "LP bound solve failed");
  out.bound = bound.objective;

  if (method == "lp") {
    out.allocation = bound.allocation;
    out.objective = bound.objective;
    return out;
  }
  core::HeuristicResult result{core::Allocation(problem.num_clusters()), 0.0, 0,
                               lp::SolveStatus::Optimal};
  if (method == "g") {
    result = core::run_greedy(problem);
  } else if (method == "lpr") {
    result = core::run_lpr(problem, relaxation);
  } else if (method == "lprg") {
    result = core::run_lprg(problem, relaxation);
  } else if (method == "lprr") {
    result = core::run_lprr(problem, rng);
  } else if (method == "exact") {
    const auto exact = core::solve_exact(problem);
    require(exact.status == lp::SolveStatus::Optimal,
            "exact solve did not finish (try a smaller platform)");
    out.allocation = exact.allocation;
    out.objective = exact.objective;
    return out;
  } else {
    throw Error("--method: expected g|lpr|lprg|lprr|lp|exact");
  }
  require(result.status == lp::SolveStatus::Optimal, "method '" + method + "' failed");
  out.allocation = std::move(result.allocation);
  out.objective = result.objective;
  return out;
}

void print_allocation(const platform::Platform& plat, const core::Allocation& alloc,
                      std::ostream& os) {
  TextTable table({"from", "on", "alpha", "beta"});
  for (int k = 0; k < plat.num_clusters(); ++k) {
    for (int l = 0; l < plat.num_clusters(); ++l) {
      if (alloc.alpha(k, l) <= 1e-12 && alloc.beta(k, l) <= 1e-12) continue;
      const auto name = [&](int c) {
        return plat.cluster(c).name.empty() ? "C" + std::to_string(c)
                                            : plat.cluster(c).name;
      };
      table.add_row({name(k), name(l), TextTable::fmt(alloc.alpha(k, l), 3),
                     TextTable::fmt(alloc.beta(k, l), 0)});
    }
  }
  table.print(os);
}

/// Generator options shared by `generate` and `online` (which generates a
/// platform in-memory when no --platform file is given).
platform::GeneratorParams generator_params_from_args(Args& args) {
  platform::GeneratorParams params;
  params.num_clusters = args.get_int("clusters", 10);
  params.connectivity = args.get_double("connectivity", 0.4);
  params.heterogeneity = args.get_double("heterogeneity", 0.5);
  params.mean_gateway_bw = args.get_double("gateway", 250);
  params.mean_backbone_bw = args.get_double("bw", 50);
  params.mean_max_connections = args.get_double("maxcon", 50);
  params.cluster_speed = args.get_double("speed", 100);
  params.mean_latency = args.get_double("latency", 0);
  params.ensure_connected = args.get_flag("connected");
  params.num_transit_routers = args.get_int("transit", 0);
  return params;
}

int cmd_generate(Args& args, std::ostream& out) {
  const platform::GeneratorParams params = generator_params_from_args(args);
  const std::string out_path = args.get_string("out", "");
  Rng rng(args.get_u64("seed", 1));
  args.reject_unknown();

  const platform::Platform plat = generate_platform(params, rng);
  if (out_path.empty()) {
    platform::write_platform(plat, out);
  } else {
    std::ofstream file(out_path);
    require(static_cast<bool>(file), "cannot write '" + out_path + "'");
    platform::write_platform(plat, file);
    out << "wrote " << plat.num_clusters() << " clusters, " << plat.num_links()
        << " links to " << out_path << "\n";
  }
  return 0;
}

int cmd_solve(Args& args, std::ostream& out) {
  const platform::Platform plat = load_platform(args.get_string("platform", ""));
  const std::vector<double> payoffs = resolve_payoffs(args, plat.num_clusters());
  const core::Objective objective = resolve_objective(args);
  const bool with_schedule = args.get_flag("schedule");
  const core::SteadyStateProblem problem(plat, payoffs, objective);
  Solved solved = solve_with_method(problem, args);
  args.reject_unknown();

  out << "method " << solved.method << ", objective " << to_string(objective)
      << ": " << solved.objective << "  (LP bound " << solved.bound << ")\n";
  print_allocation(plat, solved.allocation, out);

  if (with_schedule) {
    const auto sched = core::build_periodic_schedule(problem, solved.allocation);
    out << "period: " << sched.period << "\n";
    for (const auto& t : sched.transfers)
      out << "  transfer " << t.units << " units C" << t.from << " -> C" << t.to
          << " (" << t.connections << " connections)\n";
    for (const auto& c : sched.compute)
      out << "  compute " << c.units << " units of app " << c.app << " on C"
          << c.on_cluster << "\n";
  }
  return 0;
}

int cmd_simulate(Args& args, std::ostream& out) {
  const platform::Platform plat = load_platform(args.get_string("platform", ""));
  const std::vector<double> payoffs = resolve_payoffs(args, plat.num_clusters());
  const core::Objective objective = resolve_objective(args);
  const core::SteadyStateProblem problem(plat, payoffs, objective);
  Solved solved = solve_with_method(problem, args);

  sim::SimOptions options;
  options.periods = args.get_int("periods", 10);
  options.window_units = args.get_double("window", options.window_units);
  options.policy = policy_from_args(args, "paced");
  args.reject_unknown();

  const auto sched = core::build_periodic_schedule(problem, solved.allocation);
  const auto report = sim::simulate_schedule(problem, sched, options);
  out << "method " << solved.method << ", period " << sched.period << ", policy "
      << campaign::to_string(options.policy) << "\n";
  TextTable table({"application", "scheduled", "achieved"});
  for (int k = 0; k < plat.num_clusters(); ++k)
    table.add_row({"app" + std::to_string(k), TextTable::fmt(sched.throughput(k), 3),
                   TextTable::fmt(report.throughput[k], 3)});
  table.print(out);
  out << "worst period overrun ratio: " << TextTable::fmt(report.worst_overrun_ratio, 4)
      << "\n";
  out << "engine incremental: " << report.events << " events, "
      << report.rate_recomputations << " full + " << report.partial_recomputations
      << " partial rate solves\n";
  return 0;
}

/// `dls sweep --loads N`: the multi-load variant — one grid cell, one
/// `loads` scenario cell, replications = --cases, each case one joint
/// N-load LP (ISSUE 8).
int cmd_sweep_loads(Args& args, std::ostream& out, int clusters, int loads_n) {
  const std::string obj_name = args.get_string("objective", "sum");
  core::MultiObjective objective = core::MultiObjective::WeightedSum;
  require(core::parse_multi_objective(obj_name, objective),
          "--objective: expected sum|maxmin|pf");
  const std::string mix = args.get_string("load-mix", "uniform");
  require(mix == "uniform" || mix == "hotspot",
          "--load-mix: expected uniform|hotspot");
  const double weight_spread = args.get_double("weight-spread", 0.5);
  const int cases = args.get_int("cases", 20);
  const int jobs = args.get_int("jobs", 0);
  const std::uint64_t seed = args.get_u64("seed", 1);
  args.reject_unknown();
  require(cases >= 1, "--cases: need at least one replication");
  require(jobs >= 0, "--jobs: cannot be negative");

  campaign::ScenarioSpec spec;
  spec.name = "sweep-loads";
  spec.seed = seed;
  spec.replications = cases;
  campaign::PlatformSource cell;
  cell.kind = campaign::PlatformSource::Kind::Grid;
  cell.grid_clusters = clusters;
  cell.label = "grid:K=" + std::to_string(clusters);
  spec.platforms = {std::move(cell)};
  campaign::WorkloadSource lw;
  lw.kind = campaign::WorkloadSource::Kind::Loads;
  lw.load_count = loads_n;
  lw.load_mix = mix;
  lw.multi_objective = objective;
  lw.weight_spread = weight_spread;
  lw.label = "loads:N=" + std::to_string(loads_n);
  spec.scenarios = {std::move(lw)};

  campaign::RunnerOptions opt;
  opt.jobs = jobs;
  WallTimer timer;
  const campaign::CampaignReport report = campaign::run_campaign(spec, opt);
  const double wall = timer.seconds();

  const campaign::GroupAggregate& group = report.groups.front();
  const auto metric =
      [&](const std::string& name) -> const campaign::MetricAggregate& {
    for (const campaign::MetricAggregate& m : group.metrics)
      if (m.name == name) return m;
    throw Error("sweep: missing campaign metric '" + name + "'");
  };
  const int ok = static_cast<int>(metric("ok").acc.sum());
  out << "sweep: K=" << clusters << ", " << loads_n
      << " concurrent loads (mix " << mix << ", objective "
      << core::to_string(objective) << "), " << ok << "/" << cases
      << " cases ok, " << TextTable::fmt(wall, 2) << "s\n";
  TextTable table({"metric", "mean", "stddev", "cases"});
  for (const char* name : {"objective", "sum_throughput", "min_weighted",
                           "jain", "lp_solves", "lp_iterations"}) {
    const campaign::MetricAggregate& m = metric(name);
    table.add_row({name, table_cell(m.acc, m.acc.mean(), 4),
                   table_cell(m.acc, m.acc.stddev(), 4),
                   std::to_string(m.acc.count())});
  }
  table.print(out);
  return 0;
}

/// `sweep` is a thin adapter over the campaign runner: one grid cell,
/// one offline scenario, replications = --cases.
int cmd_sweep(Args& args, std::ostream& out) {
  const int clusters = args.get_int("clusters", 10);
  const int loads_n = args.get_int("loads", 0);
  require(loads_n >= 0, "--loads: cannot be negative");
  if (loads_n > 0) return cmd_sweep_loads(args, out, clusters, loads_n);
  const core::Objective objective = resolve_objective(args);
  const bool with_lprr = args.get_flag("lprr");
  const int cases = args.get_int("cases", 20);
  const int jobs = args.get_int("jobs", 0);
  const std::uint64_t seed = args.get_u64("seed", 1);
  args.reject_unknown();
  require(cases >= 1, "--cases: need at least one replication");
  require(jobs >= 0, "--jobs: cannot be negative");

  campaign::ScenarioSpec spec;
  spec.name = "sweep";
  spec.seed = seed;
  spec.replications = cases;
  campaign::PlatformSource cell;
  cell.kind = campaign::PlatformSource::Kind::Grid;
  cell.grid_clusters = clusters;
  cell.label = "grid:K=" + std::to_string(clusters);
  spec.platforms = {std::move(cell)};
  campaign::WorkloadSource none;
  none.label = "none";
  spec.scenarios = {std::move(none)};
  spec.methods = {campaign::Method::G, campaign::Method::Lpr,
                  campaign::Method::Lprg};
  if (with_lprr) spec.methods.push_back(campaign::Method::Lprr);
  spec.objectives = {objective};

  campaign::RunnerOptions opt;
  opt.jobs = jobs;
  WallTimer timer;
  const campaign::CampaignReport report = campaign::run_campaign(spec, opt);
  const double wall = timer.seconds();

  const campaign::GroupAggregate& group = report.groups.front();
  const auto metric = [&](const std::string& name) -> const campaign::MetricAggregate& {
    for (const campaign::MetricAggregate& m : group.metrics)
      if (m.name == name) return m;
    throw Error("sweep: missing campaign metric '" + name + "'");
  };
  const int ok = static_cast<int>(metric("ok").acc.sum());
  out << "sweep: K=" << clusters << ", " << ok << "/" << cases
      << " cases ok, " << TextTable::fmt(wall, 2) << "s\n";
  TextTable table({"method", "mean ratio to LP", "stddev", "cases"});
  const auto add_method = [&](const char* label, const std::string& name) {
    const campaign::MetricAggregate& m = metric(name);
    table.add_row({label, table_cell(m.acc, m.acc.mean(), 3),
                   table_cell(m.acc, m.acc.stddev(), 3),
                   std::to_string(m.acc.count())});
  };
  add_method("G", "ratio_g");
  add_method("LPR", "ratio_lpr");
  add_method("LPRG", "ratio_lprg");
  if (with_lprr) add_method("LPRR", "ratio_lprr");
  table.print(out);
  return 0;
}

int cmd_campaign(Args& args, std::ostream& out, std::ostream& err) {
  const std::string spec_path = args.get_string("spec", "");
  require(!spec_path.empty(), "--spec: a .campaign file is required");
  std::ifstream in(spec_path);
  require(static_cast<bool>(in), "cannot open campaign spec '" + spec_path + "'");
  const campaign::ScenarioSpec spec = campaign::read_campaign(in);

  // --serve <port>: distributed coordinator mode. Same report surface
  // (--json/--csv/--cases), bit-identical output to the in-process run.
  const int serve_port = args.get_int("serve", -1);
  if (serve_port >= 0) {
    require(serve_port <= 65535, "--serve: port out of range");
    require(args.get_string("shard", "").empty(),
            "--shard: a serving coordinator always covers the full matrix");
    dist::CoordinatorOptions copt;
    copt.port = static_cast<std::uint16_t>(serve_port);
    copt.port_file = args.get_string("port-file", "");
    const int range_size = args.get_int("range-size", 8);
    require(range_size >= 1, "--range-size: must be >= 1");
    copt.range_size = static_cast<std::size_t>(range_size);
    copt.heartbeat_timeout = args.get_double("heartbeat-timeout", 15.0);
    copt.checkpoint_path = args.get_string("checkpoint", "");
    const int snapshot_every = args.get_int("snapshot-every", 8);
    require(snapshot_every >= 1, "--snapshot-every: must be >= 1");
    copt.snapshot_every = static_cast<std::size_t>(snapshot_every);
    copt.resume = args.get_flag("resume");
    require(!copt.resume || !copt.checkpoint_path.empty(),
            "--resume: requires --checkpoint");
    const int exit_after = args.get_int("exit-after-snapshots", 0);
    require(exit_after >= 0, "--exit-after-snapshots: cannot be negative");
    copt.exit_after_snapshots = static_cast<std::size_t>(exit_after);
    copt.log = [&err](const std::string& line) { err << "dls: " << line << "\n"; };

    const bool json = args.get_flag("json");
    const bool csv = args.get_flag("csv");
    require(!(json && csv), "--json and --csv are mutually exclusive");
    const std::string cases_path = args.get_string("cases", "");
    std::ofstream cases_file;
    if (!cases_path.empty()) {
      cases_file.open(cases_path);
      require(static_cast<bool>(cases_file), "cannot write '" + cases_path + "'");
      copt.case_sink = [&cases_file](const campaign::CampaignReport& report,
                                     const campaign::CaseRecord& record) {
        campaign::write_case_json(report, record, cases_file);
      };
    }
    args.reject_unknown();

    WallTimer timer;
    const dist::CoordinatorResult result = dist::serve_campaign(spec, copt);
    if (!result.complete) {
      err << "dls: stopped before completion; resume with --resume "
             "--checkpoint '" << copt.checkpoint_path << "'\n";
      return 3;
    }
    if (json) {
      campaign::write_report_json(result.report, out);
    } else if (csv) {
      campaign::write_report_csv(result.report, out);
    } else {
      campaign::write_report_text(result.report, out, timer.seconds());
    }
    err << "dls: distributed: " << result.workers_seen << " worker(s), "
        << result.worker_deaths << " death(s), " << result.ranges_requeued
        << " requeue(s), " << result.snapshots_written << " snapshot(s), "
        << result.resumed_cases << " case(s) resumed\n";
    return 0;
  }

  campaign::RunnerOptions opt;
  opt.jobs = args.get_int("jobs", 0);
  require(opt.jobs >= 0, "--jobs: cannot be negative");
  const std::string shard = args.get_string("shard", "");
  if (!shard.empty()) {
    // Strict i/n: both components must be all-digits — "1x3/4" silently
    // running as shard 1/4 would corrupt a multi-machine union.
    const auto parse_component = [](const std::string& text) -> long {
      if (text.empty() ||
          text.find_first_not_of("0123456789") != std::string::npos)
        return -1;
      try {
        return std::stol(text);
      } catch (const std::exception&) {
        return -1;
      }
    };
    const std::size_t slash = shard.find('/');
    const long parsed_i =
        slash == std::string::npos ? -1 : parse_component(shard.substr(0, slash));
    const long parsed_n =
        slash == std::string::npos ? -1 : parse_component(shard.substr(slash + 1));
    require(parsed_i >= 0 && parsed_n >= 1 && parsed_i < parsed_n,
            "--shard: expected i/n with 0 <= i < n, got '" + shard + "'" +
                (parsed_n == 0 ? " (a shard count of 0 partitions nothing)"
                               : ""));
    opt.shard_index = static_cast<int>(parsed_i);
    opt.shard_count = static_cast<int>(parsed_n);
  }
  const bool json = args.get_flag("json");
  const bool csv = args.get_flag("csv");
  require(!(json && csv), "--json and --csv are mutually exclusive");
  const std::string cases_path = args.get_string("cases", "");
  args.reject_unknown();

  std::ofstream cases_file;
  if (!cases_path.empty()) {
    cases_file.open(cases_path);
    require(static_cast<bool>(cases_file), "cannot write '" + cases_path + "'");
    opt.case_sink = [&cases_file](const campaign::CampaignReport& report,
                                  const campaign::CaseRecord& record) {
      campaign::write_case_json(report, record, cases_file);
    };
  }

  WallTimer timer;
  const campaign::CampaignReport report = campaign::run_campaign(spec, opt);
  if (report.executed_cases == 0) {
    // Still a valid (empty) report with exit 0 — a shard index past the
    // case count is legitimate in a fixed-width multi-machine launch —
    // but flag it so a typo'd spec does not silently produce nothing.
    err << "dls: warning: campaign expanded to zero cases for this run"
        << (opt.shard_count > 1 ? " (shard " + std::to_string(opt.shard_index) +
                                      "/" + std::to_string(opt.shard_count) + ")"
                                : "")
        << "\n";
  }
  if (json) {
    campaign::write_report_json(report, out);
  } else if (csv) {
    campaign::write_report_csv(report, out);
  } else {
    campaign::write_report_text(report, out, timer.seconds());
  }
  return 0;
}

int cmd_worker(Args& args, std::ostream& out, std::ostream& err) {
  const std::string connect = args.get_string("connect", "");
  require(!connect.empty(),
          "--connect: host:port of the coordinator is required");
  const std::size_t colon = connect.rfind(':');
  require(colon != std::string::npos && colon > 0 && colon + 1 < connect.size(),
          "--connect: expected host:port, got '" + connect + "'");
  const std::string port_text = connect.substr(colon + 1);
  require(port_text.find_first_not_of("0123456789") == std::string::npos,
          "--connect: malformed port in '" + connect + "'");
  const long port = std::strtol(port_text.c_str(), nullptr, 10);
  require(port >= 1 && port <= 65535,
          "--connect: port out of range in '" + connect + "'");

  dist::WorkerOptions opt;
  opt.host = connect.substr(0, colon);
  opt.port = static_cast<std::uint16_t>(port);
  opt.jobs = args.get_int("jobs", 0);
  require(opt.jobs >= 0, "--jobs: cannot be negative");
  opt.retry_seconds = args.get_double("retry-seconds", 10.0);
  require(opt.retry_seconds >= 0, "--retry-seconds: cannot be negative");
  opt.heartbeat_period = args.get_double("heartbeat-period", 2.0);
  require(opt.heartbeat_period > 0, "--heartbeat-period: must be positive");
  // Test hook for the fault-tolerance smoke: SIGKILL this process on
  // receipt of the n-th range lease (a real mid-range worker death).
  const int die = args.get_int("die-mid-range", 0);
  require(die >= 0, "--die-mid-range: cannot be negative");
  opt.die_on_range = static_cast<std::size_t>(die);
  opt.die_hard = die > 0;
  opt.log = [&err](const std::string& line) {
    err << "dls: worker: " << line << "\n";
  };
  args.reject_unknown();

  const dist::WorkerResult result = run_worker(opt);
  if (result.aborted) {
    err << "dls: worker: coordinator aborted: " << result.abort_message << "\n";
    return 1;
  }
  out << "worker done: " << result.ranges_done << " range(s), "
      << result.cases_run << " case(s)\n";
  return 0;
}

/// Platform for the online/dynamics replays: a file, or generated
/// in-memory from the `generate` options.
platform::Platform platform_from_args(Args& args, std::uint64_t seed) {
  const std::string platform_path = args.get_string("platform", "");
  if (!platform_path.empty()) return load_platform(platform_path);
  platform::GeneratorParams params = generator_params_from_args(args);
  Rng rng(seed);
  return generate_platform(params, rng);
}

/// Workload axis value from the online/dynamics flags: a .workload
/// trace, or an arrival-model description. Shared by the single-replay
/// path (realized below) and the --reps campaign path (handed to the
/// runner as-is).
campaign::WorkloadSource workload_source_from_args(Args& args) {
  campaign::WorkloadSource src;
  const std::string workload_path = args.get_string("workload", "");
  const std::string model = args.get_string("arrival-model", "poisson");
  if (!workload_path.empty()) {
    src.kind = campaign::WorkloadSource::Kind::Trace;
    src.path = workload_path;
    src.label = "trace";
    return src;
  }
  if (model == "poisson") {
    src.kind = campaign::WorkloadSource::Kind::Poisson;
    src.poisson.count = args.get_int("arrivals", 1000);
    src.poisson.rate = args.get_double("arrival-rate", 1.0);
    src.poisson.mean_load = args.get_double("mean-load", 500);
    src.poisson.load_spread = args.get_double("load-spread", 0.5);
    src.poisson.payoff_spread = args.get_double("payoff-spread", 0.5);
    src.label = "poisson";
    return src;
  }
  if (model == "onoff") {
    src.kind = campaign::WorkloadSource::Kind::OnOff;
    src.onoff.count = args.get_int("arrivals", 1000);
    src.onoff.burst_rate = args.get_double("arrival-rate", 4.0);
    src.onoff.mean_on = args.get_double("mean-on", 25);
    src.onoff.mean_off = args.get_double("mean-off", 75);
    src.onoff.mean_load = args.get_double("mean-load", 500);
    src.onoff.load_spread = args.get_double("load-spread", 0.5);
    src.onoff.payoff_spread = args.get_double("payoff-spread", 0.5);
    src.label = "onoff";
    return src;
  }
  throw Error("--arrival-model: expected 'poisson' or 'onoff'");
}

/// Workload for the single-replay path. The workload stream is split
/// off the platform seed so the same seed can replay one workload over
/// several platforms and vice versa.
online::Workload workload_from_args(Args& args, int num_clusters,
                                    std::uint64_t seed) {
  const campaign::WorkloadSource src = workload_source_from_args(args);
  online::Workload workload = [&] {
    switch (src.kind) {
      case campaign::WorkloadSource::Kind::Trace: {
        std::ifstream in(src.path);
        require(static_cast<bool>(in),
                "cannot open workload file '" + src.path + "'");
        return online::read_workload(in);
      }
      case campaign::WorkloadSource::Kind::Poisson: {
        Rng rng(seed ^ 0xda3e39cb94b95bdbULL);
        return online::poisson_workload(src.poisson, num_clusters, rng);
      }
      default: {
        Rng rng(seed ^ 0xda3e39cb94b95bdbULL);
        return online::onoff_workload(src.onoff, num_clusters, rng);
      }
    }
  }();
  const std::string save_workload = args.get_string("save-workload", "");
  if (!save_workload.empty()) {
    std::ofstream file(save_workload);
    require(static_cast<bool>(file), "cannot write '" + save_workload + "'");
    online::write_workload(workload, file);
  }
  return workload;
}

/// Scheduling options shared by `online` and `dynamics`. `warm_name`
/// receives the --warm spelling for reporting.
online::OnlineOptions online_options_from_args(Args& args, std::string* warm_name) {
  online::OnlineOptions options;
  const online::WarmPolicy warm_policy = warm_from_args(args, warm_name);
  require(campaign::parse_rate_model(args.get_string("rate-model", "fluid"),
                                     options.rate_model),
          "--rate-model: expected fluid|sim");

  // --loads: shared multi-load LP mode. Every active arrival is a column
  // block of one joint program, so the per-app heuristic axis (--method)
  // does not apply and rates always come from the LP itself.
  options.multi_load = args.get_flag("loads");
  if (options.multi_load) {
    const std::string obj = args.get_string("objective", "sum");
    require(core::parse_multi_objective(obj, options.multi.solve.objective),
            "--objective: expected sum|maxmin|pf");
    options.multi.warm = warm_policy;
    require(options.rate_model == online::RateModel::Fluid,
            "--loads: requires --rate-model fluid "
            "(rates come from the shared LP, not the packet simulator)");
    return options;
  }

  const std::string method = args.get_string("method", "g");
  if (method == "g") {
    options.sched.method = online::Method::Greedy;
  } else if (method == "lpr") {
    options.sched.method = online::Method::Lpr;
  } else if (method == "lprg") {
    options.sched.method = online::Method::Lprg;
  } else if (method == "lp") {
    options.sched.method = online::Method::LpBound;
  } else {
    throw Error("--method: expected g|lpr|lprg|lp");
  }
  options.sched.objective = resolve_objective(args);
  options.sched.warm = warm_policy;
  if (options.rate_model == online::RateModel::Simulated) {
    options.sim_policy = policy_from_args(args, "maxmin");
    options.sim_window_units =
        args.get_double("window", options.sim_window_units);
  }
  return options;
}

/// Platform axis value for the --reps campaign path (not realized here).
campaign::PlatformSource platform_source_from_args(Args& args) {
  campaign::PlatformSource p;
  const std::string platform_path = args.get_string("platform", "");
  if (!platform_path.empty()) {
    p.kind = campaign::PlatformSource::Kind::File;
    p.path = platform_path;
    p.label = "platform";
  } else {
    p.kind = campaign::PlatformSource::Kind::Generate;
    p.params = generator_params_from_args(args);
    p.label = "gen:K=" + std::to_string(p.params.num_clusters);
  }
  return p;
}

campaign::Method to_campaign(online::Method m) {
  switch (m) {
    case online::Method::Greedy: return campaign::Method::G;
    case online::Method::Lpr: return campaign::Method::Lpr;
    case online::Method::Lprg: return campaign::Method::Lprg;
    case online::Method::LpBound: return campaign::Method::Lp;
  }
  return campaign::Method::G;
}

/// `dls online --reps N` / `dls dynamics --reps N`: seed-list
/// replication across the thread pool, reusing the campaign runner (one
/// platform cell, one method/objective/warm value, N replications; the
/// dynamics variant adds a static-baseline scenario next to the dynamic
/// one so the degradation report survives aggregation).
int run_replicated(Args& args, std::ostream& out, std::uint64_t seed, int reps,
                   bool with_dynamics) {
  const int jobs = args.get_int("jobs", 0);
  require(jobs >= 0, "--jobs: cannot be negative");
  // Each replication derives its own workload/event stream from the
  // campaign seed; there is no single trace to save.
  require(args.get_string("save-workload", "").empty(),
          "--save-workload is not supported with --reps (each replication "
          "derives its own stream; replay one seed without --reps to save it)");
  require(args.get_string("save-events", "").empty(),
          "--save-events is not supported with --reps (each replication "
          "derives its own trace; replay one seed without --reps to save it)");

  campaign::ScenarioSpec spec;
  spec.name = with_dynamics ? "dynamics" : "online";
  spec.seed = seed;
  spec.replications = reps;
  spec.platforms = {platform_source_from_args(args)};
  campaign::WorkloadSource wl = workload_source_from_args(args);
  std::string warm;
  const online::OnlineOptions options = online_options_from_args(args, &warm);
  require(!options.multi_load,
          "--loads is not supported with --reps (the campaign runner drives "
          "the single-load stream kernel; use the `loads` axis of a .campaign "
          "spec for replicated multi-load runs)");
  spec.methods = {to_campaign(options.sched.method)};
  spec.objectives = {options.sched.objective};
  spec.warm = {options.sched.warm};
  spec.rate_model = options.rate_model;
  spec.sim_policy = options.sim_policy;
  spec.sim_window_units = options.sim_window_units;
  if (with_dynamics) {
    campaign::WorkloadSource stat = wl;
    stat.label = "static";
    campaign::WorkloadSource dyn = std::move(wl);
    dyn.label = "dynamic";
    const std::string events_path = args.get_string("events", "");
    if (!events_path.empty()) {
      dyn.dyn = campaign::WorkloadSource::DynKind::Trace;
      dyn.events_path = events_path;
    } else {
      dyn.dyn = campaign::WorkloadSource::DynKind::Scenario;
      dyn.event_rate = args.get_double("event-rate", 0.02);
      dyn.severity = args.get_double("severity", 0.5);
      dyn.horizon = args.get_double("horizon", 0.0);
    }
    spec.scenarios = {std::move(stat), std::move(dyn)};
  } else {
    wl.label = "stream";
    spec.scenarios = {std::move(wl)};
  }
  const bool json = args.get_flag("json");
  args.reject_unknown();

  campaign::RunnerOptions opt;
  opt.jobs = jobs;
  WallTimer timer;
  const campaign::CampaignReport report = campaign::run_campaign(spec, opt);
  if (json) {
    campaign::write_report_json(report, out);
    return 0;
  }
  campaign::write_report_text(report, out, timer.seconds());
  if (with_dynamics) {
    const auto degradation = [&](const std::string& metric) {
      const double base = campaign::group_metric_mean(report, "static", metric);
      const double dyn = campaign::group_metric_mean(report, "dynamic", metric);
      return base > 0.0 ? dyn / base : 0.0;
    };
    out << "degradation over " << reps << " replications: response x"
        << TextTable::fmt(degradation("mean_response"), 3) << ", slowdown x"
        << TextTable::fmt(degradation("mean_slowdown"), 3) << "\n";
  }
  return 0;
}

int cmd_online(Args& args, std::ostream& out) {
  const std::uint64_t seed = args.get_u64("seed", 1);
  const int reps = args.get_int("reps", 1);
  require(reps >= 1, "--reps: need at least one replication");
  if (reps > 1) return run_replicated(args, out, seed, reps, false);
  // A single replay has nothing to parallelize, but scripts sweeping
  // --reps down to 1 may still pass the pool size.
  (void)args.get_int("jobs", 0);
  const platform::Platform plat = platform_from_args(args, seed);
  const online::Workload workload =
      workload_from_args(args, plat.num_clusters(), seed);
  std::string warm;
  const online::OnlineOptions options = online_options_from_args(args, &warm);
  const bool json = args.get_flag("json");
  args.reject_unknown();

  const online::OnlineEngine engine(plat, options);
  WallTimer timer;
  const online::OnlineReport report = engine.run(workload);
  const double wall = timer.seconds();

  // In --loads mode there is no per-app heuristic; the "method" is the
  // shared LP and the objective is the multi-load one.
  const std::string method_label =
      options.multi_load ? "shared-lp"
                         : std::string(to_string(options.sched.method));
  const std::string objective_label =
      options.multi_load ? core::to_string(options.multi.solve.objective)
                         : std::string(to_string(options.sched.objective));

  std::vector<double> responses;
  responses.reserve(report.apps.size());
  for (const auto& app : report.apps) responses.push_back(app.response());
  const bool have_completions = !responses.empty();
  const double p95 = have_completions ? percentile(responses, 95.0) : 0.0;

  if (json) {
    out.precision(10);
    out << "{\"command\":\"online\",\"clusters\":" << plat.num_clusters()
        << ",\"method\":\"" << method_label << "\""
        << ",\"objective\":\"" << objective_label << "\""
        << ",\"warm_policy\":\"" << warm << "\""
        << ",\"arrivals\":" << report.arrivals
        << ",\"completed\":" << report.completed
        << ",\"queued_arrivals\":" << report.queued_arrivals
        << ",\"reschedules\":" << report.reschedules
        << ",\"warm_solves\":" << report.warm_solves
        << ",\"cold_solves\":" << report.cold_solves
        << ",\"warm_seconds\":" << report.warm_seconds
        << ",\"cold_seconds\":" << report.cold_seconds
        << ",\"makespan\":" << report.makespan
        << ",\"total_work\":" << report.total_work
        << ",\"mean_response\":"
        << json_value(report.metrics.response, report.metrics.response.mean(), 10);
    out << ",\"p95_response\":";
    if (have_completions)
      out << p95;
    else
      out << "null";
    out << ",\"mean_wait\":"
        << json_value(report.metrics.wait, report.metrics.wait.mean(), 10)
        << ",\"mean_slowdown\":"
        << json_value(report.metrics.slowdown, report.metrics.slowdown.mean(), 10)
        << ",\"mean_utilization\":" << report.metrics.utilization.mean()
        << ",\"mean_fairness\":" << report.metrics.fairness.mean()
        << ",\"mean_active\":" << report.metrics.active_apps.mean()
        << ",\"peak_active\":" << report.peak_active
        << ",\"peak_queued\":" << report.peak_queued
        << ",\"wall_seconds\":" << wall << "}\n";
    return 0;
  }

  out << "online: " << report.arrivals << " arrivals on " << plat.num_clusters()
      << " clusters, method " << method_label << ", objective "
      << objective_label << ", warm " << warm << "\n";
  TextTable table({"metric", "value"});
  table.add_row({"completed", std::to_string(report.completed)});
  table.add_row({"makespan", TextTable::fmt(report.makespan, 2)});
  table.add_row({"mean response",
                 table_cell(report.metrics.response, report.metrics.response.mean(), 3)});
  table.add_row({"p95 response",
                 have_completions ? TextTable::fmt(p95, 3) : std::string("-")});
  table.add_row({"mean wait",
                 table_cell(report.metrics.wait, report.metrics.wait.mean(), 3)});
  table.add_row({"mean slowdown",
                 table_cell(report.metrics.slowdown, report.metrics.slowdown.mean(), 3)});
  table.add_row({"mean utilization", TextTable::fmt(report.metrics.utilization.mean(), 4)});
  table.add_row({"mean fairness (Jain)", TextTable::fmt(report.metrics.fairness.mean(), 4)});
  table.add_row({"mean active apps", TextTable::fmt(report.metrics.active_apps.mean(), 2)});
  table.add_row({"peak active / queued", std::to_string(report.peak_active) + " / " +
                                             std::to_string(report.peak_queued)});
  table.print(out);
  out << "reschedules: " << report.reschedules << " (" << report.warm_solves
      << " warm, " << report.cold_solves << " cold); solve time "
      << TextTable::fmt(report.warm_seconds, 3) << "s warm + "
      << TextTable::fmt(report.cold_seconds, 3) << "s cold; wall "
      << TextTable::fmt(wall, 2) << "s\n";
  return 0;
}

int cmd_dynamics(Args& args, std::ostream& out) {
  const std::uint64_t seed = args.get_u64("seed", 1);
  const int reps = args.get_int("reps", 1);
  require(reps >= 1, "--reps: need at least one replication");
  if (reps > 1) return run_replicated(args, out, seed, reps, true);
  (void)args.get_int("jobs", 0);  // see cmd_online
  const platform::Platform plat = platform_from_args(args, seed);
  const online::Workload workload =
      workload_from_args(args, plat.num_clusters(), seed);
  std::string warm;
  const online::OnlineOptions options = online_options_from_args(args, &warm);
  require(!options.multi_load,
          "--loads applies to `dls online`; the dynamics report compares the "
          "per-app scheduler against its static baseline");

  // Event trace: a .events file, or a generated failure/drift/churn
  // scenario (one ChurnScenarioGrid cell). The horizon defaults to
  // stretching past the arrival stream so late drains still see events;
  // the trace stream is split off both the platform and workload seeds.
  const std::string events_path = args.get_string("events", "");
  const dynamics::EventTrace trace = [&] {
    if (!events_path.empty()) {
      std::ifstream in(events_path);
      require(static_cast<bool>(in),
              "cannot open events file '" + events_path + "'");
      return dynamics::read_events(in);
    }
    const double last_arrival =
        workload.arrivals.empty() ? 0.0 : workload.arrivals.back().time;
    const double event_rate = args.get_double("event-rate", 0.02);
    const double severity = args.get_double("severity", 0.5);
    const double horizon = args.get_double("horizon", 2.0 * last_arrival + 100.0);
    Rng rng(seed ^ 0x5bf03635d2d741efULL);
    return dynamics::scenario_trace(event_rate, severity, horizon, plat, rng);
  }();
  const std::string save_events = args.get_string("save-events", "");
  if (!save_events.empty()) {
    std::ofstream file(save_events);
    require(static_cast<bool>(file), "cannot write '" + save_events + "'");
    dynamics::write_events(trace, file);
  }
  const bool json = args.get_flag("json");
  args.reject_unknown();

  // Replay twice: the static platform is the degradation baseline.
  const online::OnlineEngine engine(plat, options);
  WallTimer timer;
  const online::OnlineReport base = engine.run(workload);
  const double base_wall = timer.seconds();
  WallTimer dyn_timer;
  const online::OnlineReport dyn = engine.run(workload, trace);
  const double dyn_wall = dyn_timer.seconds();

  const auto ratio = [](double dynamic, double baseline) {
    return baseline > 0.0 ? dynamic / baseline : 0.0;
  };
  const double response_degradation =
      ratio(dyn.metrics.response.mean(), base.metrics.response.mean());
  const double slowdown_degradation =
      ratio(dyn.metrics.slowdown.mean(), base.metrics.slowdown.mean());
  const double warm_ms =
      dyn.warm_solves > 0 ? 1e3 * dyn.warm_seconds / dyn.warm_solves : 0.0;
  const double cold_ms =
      dyn.cold_solves > 0 ? 1e3 * dyn.cold_seconds / dyn.cold_solves : 0.0;

  if (json) {
    // Deterministic by construction: counts and metrics only, no wall
    // times — the same seed reproduces this line bit for bit.
    out.precision(10);
    out << "{\"command\":\"dynamics\",\"clusters\":" << plat.num_clusters()
        << ",\"method\":\"" << to_string(options.sched.method) << "\""
        << ",\"objective\":\"" << to_string(options.sched.objective) << "\""
        << ",\"warm_policy\":\"" << warm << "\""
        << ",\"arrivals\":" << dyn.arrivals
        << ",\"trace_events\":" << trace.size()
        << ",\"platform_events\":" << dyn.platform_events
        << ",\"completed\":" << dyn.completed
        << ",\"aborted\":" << dyn.aborted
        << ",\"rejected\":" << dyn.rejected
        << ",\"reschedules\":" << dyn.reschedules
        << ",\"warm_solves\":" << dyn.warm_solves
        << ",\"repaired_solves\":" << dyn.repaired_solves
        << ",\"cold_solves\":" << dyn.cold_solves
        << ",\"makespan\":" << dyn.makespan
        << ",\"total_work\":" << dyn.total_work
        << ",\"mean_response\":"
        << json_value(dyn.metrics.response, dyn.metrics.response.mean(), 10)
        << ",\"mean_slowdown\":"
        << json_value(dyn.metrics.slowdown, dyn.metrics.slowdown.mean(), 10)
        << ",\"mean_utilization\":" << dyn.metrics.utilization.mean()
        << ",\"baseline_completed\":" << base.completed
        << ",\"baseline_makespan\":" << base.makespan
        << ",\"baseline_mean_response\":"
        << json_value(base.metrics.response, base.metrics.response.mean(), 10)
        << ",\"baseline_mean_slowdown\":"
        << json_value(base.metrics.slowdown, base.metrics.slowdown.mean(), 10)
        << ",\"response_degradation\":" << response_degradation
        << ",\"slowdown_degradation\":" << slowdown_degradation << "}\n";
    return 0;
  }

  out << "dynamics: " << dyn.arrivals << " arrivals vs " << trace.size()
      << " platform events on " << plat.num_clusters() << " clusters, method "
      << to_string(options.sched.method) << ", objective "
      << to_string(options.sched.objective) << ", warm " << warm << "\n";
  TextTable table({"metric", "static", "dynamic"});
  table.add_row({"completed", std::to_string(base.completed),
                 std::to_string(dyn.completed)});
  table.add_row({"aborted / rejected", "0 / 0",
                 std::to_string(dyn.aborted) + " / " + std::to_string(dyn.rejected)});
  table.add_row({"makespan", TextTable::fmt(base.makespan, 2),
                 TextTable::fmt(dyn.makespan, 2)});
  table.add_row({"mean response",
                 table_cell(base.metrics.response, base.metrics.response.mean(), 3),
                 table_cell(dyn.metrics.response, dyn.metrics.response.mean(), 3)});
  table.add_row({"mean slowdown",
                 table_cell(base.metrics.slowdown, base.metrics.slowdown.mean(), 3),
                 table_cell(dyn.metrics.slowdown, dyn.metrics.slowdown.mean(), 3)});
  table.add_row({"mean utilization",
                 TextTable::fmt(base.metrics.utilization.mean(), 4),
                 TextTable::fmt(dyn.metrics.utilization.mean(), 4)});
  table.print(out);
  out << "degradation: response x" << TextTable::fmt(response_degradation, 3)
      << ", slowdown x" << TextTable::fmt(slowdown_degradation, 3) << "\n";
  out << "dynamic reschedules: " << dyn.reschedules << " (" << dyn.warm_solves
      << " warm, of which " << dyn.repaired_solves << " basis-repaired; "
      << dyn.cold_solves << " cold); " << TextTable::fmt(warm_ms, 3)
      << " ms/warm vs " << TextTable::fmt(cold_ms, 3) << " ms/cold; wall "
      << TextTable::fmt(base_wall, 2) << "s static + "
      << TextTable::fmt(dyn_wall, 2) << "s dynamic\n";
  return 0;
}

// `dls serve` stop flag. Signal handlers can only touch a
// sig_atomic_t; the daemon polls it once per loop iteration and turns
// it into a drain.
volatile std::sig_atomic_t g_serve_stop = 0;

void serve_signal_handler(int) { g_serve_stop = 1; }

int cmd_serve(Args& args, std::ostream& out) {
  const std::uint64_t seed = args.get_u64("seed", 1);
  platform::Platform plat = platform_from_args(args, seed);

  serve::DaemonOptions options;
  const int port = args.get_int("port", 0);
  require(port >= 0 && port <= 65535, "--port: port out of range");
  options.port = static_cast<std::uint16_t>(port);
  options.port_file = args.get_string("port-file", "");
  options.engine.max_loads = args.get_int("max-loads", 0);
  const std::string obj = args.get_string("objective", "sum");
  require(core::parse_multi_objective(obj, options.engine.sched.solve.objective),
          "--objective: expected sum|maxmin|pf");
  options.engine.sched.warm = warm_from_args(args);

  const std::string replay_path = args.get_string("replay", "");
  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    require(static_cast<bool>(in),
            "cannot open workload file '" + replay_path + "'");
    options.replay = online::read_workload(in);
  }
  const std::string events_path = args.get_string("events", "");
  if (!events_path.empty()) {
    std::ifstream in(events_path);
    require(static_cast<bool>(in),
            "cannot open events file '" + events_path + "'");
    options.events = dynamics::read_events(in);
  }
  options.replay_speed = args.get_double("replay-speed", 1.0);
  options.exit_after_replay = args.get_flag("exit-after-replay");
  options.drain_grace = args.get_double("drain-grace", 0.0);
  options.trace_file = args.get_string("trace-file", "");
  args.reject_unknown();

  g_serve_stop = 0;
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);
  options.stop_requested = [] { return g_serve_stop != 0; };
  options.log = [&out](const std::string& line) {
    out << line << "\n" << std::flush;
  };

  const serve::DaemonReport report = serve::run_daemon(std::move(plat), options);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);

  const serve::EngineCounters& c = report.counters;
  out << "serve: " << report.exit_reason << "; served " << report.requests
      << " request(s), " << report.bad_requests << " bad\n";
  out << "serve: " << c.arrivals << " arrival(s): " << c.admitted
      << " admitted, " << c.rejected_overload << " overload, "
      << c.rejected_absent << " absent, " << c.rejected_draining
      << " draining; peak " << c.peak_active << " active\n";
  out << "serve: " << c.completed << " completed, " << c.cancelled
      << " cancelled, " << c.aborted_churn << " aborted; " << c.reschedules
      << " reschedule(s) (" << c.warm_solves << " warm, of which "
      << c.repaired_solves << " repaired; " << c.cold_solves << " cold); "
      << c.platform_events << " platform event(s)\n";
  return 0;
}

int cmd_reduce(Args& args, std::ostream& out) {
  const std::string path = args.get_string("graph", "");
  args.reject_unknown();
  std::ifstream in(path);
  require(static_cast<bool>(in), "cannot open graph file '" + path + "'");
  int n = 0, m = 0;
  in >> n >> m;
  require(in && n >= 1 && m >= 0, "graph file: expected 'n m' header");
  core::npc::Graph g(n);
  for (int i = 0; i < m; ++i) {
    int u = 0, v = 0;
    in >> u >> v;
    require(static_cast<bool>(in), "graph file: truncated edge list");
    g.add_edge(u, v);
  }

  const auto mis = core::npc::maximum_independent_set(g);
  const auto inst = core::npc::build_reduction(g);
  out << "# reduction of " << n << "-vertex, " << m << "-edge graph\n"
      << "# maximum independent set size: " << mis.size() << "\n"
      << "# Lemma 1 holds: " << (core::npc::lemma1_holds(g, inst) ? "yes" : "NO")
      << "\n";
  platform::write_platform(inst.platform, out);
  return 0;
}

}  // namespace

int run_cli(std::vector<std::string> args, std::ostream& out, std::ostream& err) {
  try {
    Args parsed(std::move(args));
    const std::string& cmd = parsed.command();
    // `--version` has no positional command, so the token parses as a
    // bare flag; `dls version` also works.
    if (cmd == "version" || (cmd.empty() && parsed.get_flag("version"))) {
      out << support::build_summary() << "\n";
      return 0;
    }
    if (cmd.empty() || cmd == "help") {
      print_usage(cmd.empty() ? err : out);
      return cmd.empty() ? 2 : 0;
    }
    if (cmd == "generate") return cmd_generate(parsed, out);
    if (cmd == "solve") return cmd_solve(parsed, out);
    if (cmd == "simulate") return cmd_simulate(parsed, out);
    if (cmd == "campaign") return cmd_campaign(parsed, out, err);
    if (cmd == "worker") return cmd_worker(parsed, out, err);
    if (cmd == "sweep") return cmd_sweep(parsed, out);
    if (cmd == "online") return cmd_online(parsed, out);
    if (cmd == "dynamics") return cmd_dynamics(parsed, out);
    if (cmd == "serve") return cmd_serve(parsed, out);
    if (cmd == "reduce") return cmd_reduce(parsed, out);
    err << "dls: unknown command '" << cmd << "'\n";
    print_usage(err);
    return 2;
  } catch (const Error& e) {
    err << "dls: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace dls::cli
