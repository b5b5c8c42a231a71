// End-to-end tests of the dls command-line tool through run_cli.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "temp_path.hpp"

#ifndef DLS_SOURCE_DIR
#define DLS_SOURCE_DIR "."
#endif

namespace dls::cli {
namespace {

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun run(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run_cli(std::move(args), out, err);
  return {code, out.str(), err.str()};
}

/// Writes a platform via `generate` into a temp file; returns its path.
std::string make_platform_file() {
  const std::string path = testutil::unique_temp_path("cli_test", ".platform");
  const CliRun r = run({"generate", "--clusters", "4", "--seed", "9",
                        "--connected", "--out", path});
  EXPECT_EQ(r.code, 0) << r.err;
  return path;
}

TEST(Cli, NoCommandShowsUsageAndFails) {
  const CliRun r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  const CliRun r = run({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("generate"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const CliRun r = run({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, GenerateToStdout) {
  const CliRun r = run({"generate", "--clusters", "3", "--seed", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("dls-platform"), std::string::npos);
  EXPECT_NE(r.out.find("cluster"), std::string::npos);
}

TEST(Cli, GenerateRejectsUnknownOption) {
  const CliRun r = run({"generate", "--clusterz", "3"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--clusterz"), std::string::npos);
}

TEST(Cli, SolveEachMethod) {
  const std::string path = make_platform_file();
  for (const char* method : {"g", "lpr", "lprg", "lprr", "lp", "exact"}) {
    const CliRun r = run({"solve", "--platform", path, "--method", method});
    EXPECT_EQ(r.code, 0) << method << ": " << r.err;
    EXPECT_NE(r.out.find("objective"), std::string::npos) << method;
    EXPECT_NE(r.out.find("LP bound"), std::string::npos) << method;
  }
  std::remove(path.c_str());
}

TEST(Cli, SolveWithScheduleAndPayoffs) {
  const std::string path = make_platform_file();
  const CliRun r = run({"solve", "--platform", path, "--objective", "sum",
                        "--payoffs", "2,1,1,0", "--schedule"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("period:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, SolveRejectsBadInputs) {
  const std::string path = make_platform_file();
  EXPECT_EQ(run({"solve", "--platform", "/nonexistent"}).code, 1);
  EXPECT_EQ(run({"solve", "--platform", path, "--method", "magic"}).code, 1);
  EXPECT_EQ(run({"solve", "--platform", path, "--objective", "best"}).code, 1);
  EXPECT_EQ(run({"solve", "--platform", path, "--payoffs", "1,2"}).code, 1);
  std::remove(path.c_str());
}

TEST(Cli, SimulatePolicies) {
  const std::string path = make_platform_file();
  for (const char* policy : {"paced", "maxmin", "tcp", "window"}) {
    const CliRun r = run({"simulate", "--platform", path, "--policy", policy,
                          "--periods", "3"});
    EXPECT_EQ(r.code, 0) << policy << ": " << r.err;
    EXPECT_NE(r.out.find("overrun"), std::string::npos);
    EXPECT_NE(r.out.find("rate solves"), std::string::npos);
  }
  EXPECT_EQ(run({"simulate", "--platform", path, "--policy", "bogus"}).code, 1);
  std::remove(path.c_str());
}

TEST(Cli, SimulateEngineSelection) {
  // The CLI always runs the incremental engine; the rescan engine is the
  // oracle of tests/sim, not a user-facing choice.
  const std::string path = make_platform_file();
  const CliRun r = run({"simulate", "--platform", path, "--periods", "3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("engine incremental:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, SweepRunsCasesInParallel) {
  const CliRun r = run({"sweep", "--clusters", "4", "--cases", "3", "--jobs", "2",
                        "--seed", "5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("3/3 cases ok"), std::string::npos);
  EXPECT_NE(r.out.find("LPRG"), std::string::npos);
  // The Accumulator-backed aggregation carries the spread.
  EXPECT_NE(r.out.find("stddev"), std::string::npos);
  // Identical numbers regardless of worker count (determinism); the first
  // line carries wall time and is skipped.
  const CliRun serial = run({"sweep", "--clusters", "4", "--cases", "3", "--jobs",
                             "1", "--seed", "5"});
  EXPECT_EQ(serial.out.substr(serial.out.find('\n')),
            r.out.substr(r.out.find('\n')));
  EXPECT_EQ(run({"sweep", "--cases", "0"}).code, 1);
}

/// The committed example spec, resolved against the source tree.
std::string example_campaign_path() {
  return std::string(DLS_SOURCE_DIR) + "/data/example.campaign";
}

TEST(Cli, CampaignRunsTheCommittedExampleSpec) {
  const CliRun r = run({"campaign", "--spec", example_campaign_path(),
                        "--jobs", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("campaign 'example'"), std::string::npos);
  // All three surfaces in one run: offline sweep, stream, dynamics.
  EXPECT_NE(r.out.find("scenario=none"), std::string::npos);
  EXPECT_NE(r.out.find("scenario=poisson"), std::string::npos);
  EXPECT_NE(r.out.find("platform_events"), std::string::npos);
}

TEST(Cli, CampaignJsonIsWorkerCountInvariant) {
  const CliRun serial = run({"campaign", "--spec", example_campaign_path(),
                             "--jobs", "1", "--json"});
  const CliRun parallel = run({"campaign", "--spec", example_campaign_path(),
                               "--jobs", "8", "--json"});
  EXPECT_EQ(serial.code, 0) << serial.err;
  EXPECT_EQ(serial.out, parallel.out);
  EXPECT_NE(serial.out.find("\"command\":\"campaign\""), std::string::npos);
}

TEST(Cli, CampaignCsvAndCaseStream) {
  const std::string cases =
      testutil::unique_temp_path("cli_campaign", ".jsonl");
  const CliRun r = run({"campaign", "--spec", example_campaign_path(),
                        "--jobs", "2", "--csv", "--cases", cases});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("platform,scenario,objective"), std::string::npos);
  std::ifstream f(cases);
  std::string line;
  int lines = 0;
  std::size_t previous_case = 0;
  while (std::getline(f, line)) {
    EXPECT_EQ(line.find("{\"case\":"), 0u);
    // The stream arrives in case order.
    const std::size_t id = std::stoul(line.substr(8));
    if (lines > 0) {
      EXPECT_GT(id, previous_case);
    }
    previous_case = id;
    ++lines;
  }
  EXPECT_EQ(lines, 56);  // the example spec's full matrix
  std::remove(cases.c_str());
}

TEST(Cli, CampaignRejectsBadOptions) {
  const std::string spec = example_campaign_path();
  EXPECT_EQ(run({"campaign"}).code, 1);
  EXPECT_EQ(run({"campaign", "--spec", "/nonexistent.campaign"}).code, 1);
  EXPECT_EQ(run({"campaign", "--spec", spec, "--shard", "2/2"}).code, 1);
  EXPECT_EQ(run({"campaign", "--spec", spec, "--shard", "nope"}).code, 1);
  // A shard count of zero partitions nothing, and the diagnostic must
  // echo the offending text so multi-machine launch scripts can be
  // debugged from logs alone.
  const CliRun zero = run({"campaign", "--spec", spec, "--shard", "0/0"});
  EXPECT_EQ(zero.code, 1);
  EXPECT_NE(zero.err.find("'0/0'"), std::string::npos) << zero.err;
  EXPECT_NE(zero.err.find("partitions nothing"), std::string::npos) << zero.err;
  const CliRun mangled = run({"campaign", "--spec", spec, "--shard", "3/2"});
  EXPECT_EQ(mangled.code, 1);
  EXPECT_NE(mangled.err.find("'3/2'"), std::string::npos) << mangled.err;
  // Trailing garbage must not silently parse as a valid shard.
  EXPECT_EQ(run({"campaign", "--spec", spec, "--shard", "1x3/4"}).code, 1);
  EXPECT_EQ(run({"campaign", "--spec", spec, "--shard", "0/4junk"}).code, 1);
  EXPECT_EQ(run({"campaign", "--spec", spec, "--json", "--csv"}).code, 1);
  // Parse diagnostics surface the line number.
  const std::string bad = testutil::unique_temp_path("cli_bad", ".campaign");
  {
    std::ofstream f(bad);
    f << "dls-campaign 1\nworkload frobnicate\n";
  }
  const CliRun r = run({"campaign", "--spec", bad});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("line 2"), std::string::npos) << r.err;
  std::remove(bad.c_str());
}

TEST(Cli, CampaignServeRejectsConflictingOptions) {
  const std::string spec = example_campaign_path();
  // A serving coordinator always covers the full matrix: sharding it
  // would silently break the bit-identity contract.
  EXPECT_EQ(
      run({"campaign", "--spec", spec, "--serve", "0", "--shard", "0/2"}).code,
      1);
  EXPECT_EQ(run({"campaign", "--spec", spec, "--serve", "0", "--resume"}).code,
            1);  // --resume needs --checkpoint
  EXPECT_EQ(run({"campaign", "--spec", spec, "--serve", "70000"}).code, 1);
  EXPECT_EQ(run({"campaign", "--spec", spec, "--serve", "0", "--range-size",
                 "0"}).code,
            1);
  EXPECT_EQ(run({"campaign", "--spec", spec, "--serve", "0",
                 "--snapshot-every", "0"}).code,
            1);
}

TEST(Cli, WorkerRejectsBadOptions) {
  EXPECT_EQ(run({"worker"}).code, 1);  // --connect is required
  const CliRun bad = run({"worker", "--connect", "nohost"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("host:port"), std::string::npos) << bad.err;
  EXPECT_EQ(run({"worker", "--connect", "127.0.0.1:notaport"}).code, 1);
  EXPECT_EQ(run({"worker", "--connect", "127.0.0.1:0"}).code, 1);
  EXPECT_EQ(run({"worker", "--connect", "127.0.0.1:70000"}).code, 1);
  EXPECT_EQ(run({"worker", "--connect", ":123"}).code, 1);
  EXPECT_EQ(run({"worker", "--connect", "127.0.0.1:1", "--jobs", "-1"}).code,
            1);
}

TEST(Cli, OnlineRepsAggregatesAcrossThePool) {
  const std::vector<std::string> args{
      "online", "--clusters", "5", "--connected", "--arrivals", "20",
      "--seed", "3", "--reps", "3", "--jobs", "2"};
  const CliRun r = run(args);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("campaign 'online'"), std::string::npos);
  EXPECT_NE(r.out.find("mean_response"), std::string::npos);
  // Deterministic across worker counts (json mode strips wall times).
  std::vector<std::string> json_args{
      "online", "--clusters", "5", "--connected", "--arrivals", "20",
      "--seed", "3", "--reps", "3", "--jobs", "2", "--json"};
  const CliRun a = run(json_args);
  json_args[json_args.size() - 2] = "1";
  const CliRun b = run(json_args);
  EXPECT_EQ(a.code, 0) << a.err;
  EXPECT_EQ(a.out, b.out);
  // --jobs stays accepted when a script sweeps --reps down to 1.
  EXPECT_EQ(run({"online", "--clusters", "4", "--connected", "--arrivals",
                 "5", "--reps", "1", "--jobs", "2"})
                .code,
            0);
  // --save-workload has no single stream to save under --reps: the
  // error must say so instead of claiming an unknown option.
  const CliRun save = run({"online", "--clusters", "4", "--connected",
                           "--arrivals", "5", "--reps", "2",
                           "--save-workload",
                           testutil::unique_temp_path("cli_x", ".workload")});
  EXPECT_EQ(save.code, 1);
  EXPECT_NE(save.err.find("not supported with --reps"), std::string::npos)
      << save.err;
}

TEST(Cli, DynamicsRepsReportsAggregateDegradation) {
  const CliRun r = run({"dynamics", "--clusters", "5", "--connected",
                        "--arrivals", "15", "--seed", "3", "--event-rate",
                        "0.2", "--severity", "0.6", "--reps", "3",
                        "--jobs", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("scenario=static"), std::string::npos);
  EXPECT_NE(r.out.find("scenario=dynamic"), std::string::npos);
  EXPECT_NE(r.out.find("degradation over 3 replications"), std::string::npos);
}

TEST(Cli, ReduceGraph) {
  const std::string path = testutil::unique_temp_path("cli_test", ".graph");
  {
    std::ofstream f(path);
    f << "3 2\n0 1\n1 2\n";
  }
  const CliRun r = run({"reduce", "--graph", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("independent set size: 2"), std::string::npos);
  EXPECT_NE(r.out.find("Lemma 1 holds: yes"), std::string::npos);
  EXPECT_NE(r.out.find("dls-platform"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ReduceRejectsBadFile) {
  EXPECT_EQ(run({"reduce", "--graph", "/nonexistent"}).code, 1);
  const std::string path = testutil::unique_temp_path("cli_bad", ".graph");
  {
    std::ofstream f(path);
    f << "2 5\n0 1\n";  // truncated edge list
  }
  EXPECT_EQ(run({"reduce", "--graph", path}).code, 1);
  std::remove(path.c_str());
}

TEST(Cli, GeneratedPlatformRoundTripsThroughSolve) {
  // generate -> file -> solve reads it back and the LP bound is positive.
  const std::string path = make_platform_file();
  const CliRun r = run({"solve", "--platform", path, "--method", "lp"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.find("LP bound 0)"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, GenerateTransitAddsRouters) {
  const CliRun r = run({"generate", "--clusters", "4", "--seed", "2",
                        "--connected", "--transit", "3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("routers 7"), std::string::npos);
}

TEST(Cli, OnlineGreedyReplayIsDeterministic) {
  const std::vector<std::string> args{
      "online", "--clusters", "6", "--connected", "--arrivals", "150",
      "--seed", "11", "--json"};
  const CliRun a = run(args);
  const CliRun b = run(args);
  EXPECT_EQ(a.code, 0) << a.err;
  EXPECT_NE(a.out.find("\"completed\":150"), std::string::npos) << a.out;
  // Identical replays modulo wall-clock measurement fields.
  const auto strip_timing = [](std::string s) {
    for (const char* key : {"\"warm_seconds\"", "\"cold_seconds\"",
                            "\"wall_seconds\""}) {
      const std::size_t at = s.find(key);
      if (at == std::string::npos) continue;
      const std::size_t end = s.find_first_of(",}", s.find(':', at));
      s.erase(at, end - at);
    }
    return s;
  };
  EXPECT_EQ(strip_timing(a.out), strip_timing(b.out));
}

TEST(Cli, OnlineRunsFromWorkloadFile) {
  const std::string plat = make_platform_file();
  const std::string wl = testutil::unique_temp_path("cli_test", ".workload");
  {
    std::ofstream f(wl);
    f << "dls-workload 1\n"
         "app 0.0 0 1.0 120 alpha\n"
         "app 0.5 1 1.5 80 beta\n"
         "app 0.6 0 1.0 60 gamma\n";
  }
  const CliRun r = run({"online", "--platform", plat, "--workload", wl,
                        "--method", "lprg", "--objective", "sum"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("completed"), std::string::npos);
  EXPECT_NE(r.out.find("3 arrivals"), std::string::npos);
  std::remove(plat.c_str());
  std::remove(wl.c_str());
}

TEST(Cli, OnlineSavesGeneratedWorkload) {
  const std::string wl = testutil::unique_temp_path("cli_saved", ".workload");
  const CliRun r = run({"online", "--clusters", "4", "--connected",
                        "--arrivals", "20", "--seed", "3",
                        "--arrival-model", "onoff", "--save-workload", wl});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream f(wl);
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header, "dls-workload 1");
  std::remove(wl.c_str());
}

TEST(Cli, OnlineSimRateModelAcceptsEveryPolicy) {
  for (const char* policy : {"paced", "maxmin", "tcp", "window"}) {
    const CliRun r = run({"online", "--clusters", "4", "--connected",
                          "--arrivals", "10", "--seed", "3", "--rate-model",
                          "sim", "--policy", policy});
    EXPECT_EQ(r.code, 0) << policy << ": " << r.err;
  }
}

TEST(Cli, OnlineRejectsBadOptions) {
  EXPECT_EQ(run({"online", "--clusters", "4", "--arrivals", "5",
                 "--method", "frob"}).code, 1);
  EXPECT_EQ(run({"online", "--clusters", "4", "--arrivals", "5",
                 "--warm", "maybe"}).code, 1);
  EXPECT_EQ(run({"online", "--clusters", "4", "--arrivals", "5",
                 "--rate-model", "quantum"}).code, 1);
  EXPECT_EQ(run({"online", "--workload", "/nonexistent"}).code, 1);
}

TEST(Cli, DynamicsReplayJsonIsBitIdentical) {
  // The acceptance bar: same seed, bit-identical metrics JSON (the json
  // output deliberately carries no wall-clock fields).
  const std::vector<std::string> args{
      "dynamics", "--clusters", "6",  "--connected", "--arrivals", "120",
      "--seed",   "11",         "--method", "lpr", "--objective", "sum",
      "--event-rate", "0.3", "--severity", "0.6", "--json"};
  const CliRun a = run(args);
  const CliRun b = run(args);
  EXPECT_EQ(a.code, 0) << a.err;
  EXPECT_EQ(a.out, b.out);
  EXPECT_NE(a.out.find("\"command\":\"dynamics\""), std::string::npos);
  EXPECT_NE(a.out.find("\"trace_events\":"), std::string::npos);
  EXPECT_NE(a.out.find("\"repaired_solves\":"), std::string::npos);
  EXPECT_NE(a.out.find("\"response_degradation\":"), std::string::npos);
}

TEST(Cli, DynamicsRunsFromEventsFile) {
  const std::string plat = make_platform_file();
  const std::string ev = testutil::unique_temp_path("cli_test", ".events");
  {
    std::ofstream f(ev);
    f << "dls-events 1\n"
         "event 2.0 link-down 0\n"
         "event 4.0 cluster-leave 1\n"
         "event 6.0 link-up 0\n"
         "event 8.0 cluster-join 1\n";
  }
  const CliRun r = run({"dynamics", "--platform", plat, "--events", ev,
                        "--arrivals", "30", "--seed", "5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("4 platform events"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("degradation"), std::string::npos);
  std::remove(plat.c_str());
  std::remove(ev.c_str());
}

TEST(Cli, DynamicsSavesGeneratedEventTrace) {
  const std::string ev = testutil::unique_temp_path("cli_saved", ".events");
  const CliRun r = run({"dynamics", "--clusters", "4", "--connected",
                        "--arrivals", "15", "--seed", "3", "--event-rate",
                        "0.2", "--save-events", ev});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream f(ev);
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header, "dls-events 1");
  std::remove(ev.c_str());
}

TEST(Cli, DynamicsRejectsBadOptions) {
  EXPECT_EQ(run({"dynamics", "--clusters", "4", "--arrivals", "5",
                 "--severity", "3"}).code, 1);
  EXPECT_EQ(run({"dynamics", "--clusters", "4", "--arrivals", "5",
                 "--event-rate", "-1"}).code, 1);
  EXPECT_EQ(run({"dynamics", "--events", "/nonexistent"}).code, 1);
  EXPECT_EQ(run({"dynamics", "--clusters", "4", "--arrivals", "5",
                 "--frobnicate", "1"}).code, 1);
}

TEST(Cli, ServeRejectsOutOfRangePort) {
  // A port outside 0..65535 fails instead of wrapping to another port.
  for (const char* port : {"65536", "-1"}) {
    const CliRun r = run({"serve", "--clusters", "3", "--port", port});
    EXPECT_EQ(r.code, 1) << port;
    EXPECT_NE(r.err.find("--port: port out of range"), std::string::npos) << r.err;
  }
}

TEST(Cli, ServeSpeedIsClusterSpeedAndReplaySpeedPacesReplay) {
  // `--speed` is the generated clusters' speed on `dls serve` exactly as
  // on `dls online`; the replay pace has its own flag. A generated
  // platform at speed 250 replayed through the daemon as fast as
  // possible must end where `dls online --loads` ends on that platform.
  const std::string workload = testutil::unique_temp_path("cli_serve", ".workload");
  const std::vector<std::string> platform_flags{
      "--clusters", "4", "--connected", "--seed", "3", "--speed", "250"};
  std::vector<std::string> online{"online", "--loads", "--arrivals", "12",
                                  "--save-workload", workload, "--json"};
  online.insert(online.end(), platform_flags.begin(), platform_flags.end());
  const CliRun batch = run(online);
  ASSERT_EQ(batch.code, 0) << batch.err;
  const auto json_int = [&](const std::string& key) {
    const std::size_t at = batch.out.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key;
    return std::stoi(batch.out.substr(at + key.size() + 3));
  };
  const int completed = json_int("completed");
  const int reschedules = json_int("reschedules");
  ASSERT_GT(completed, 0);

  std::vector<std::string> serve{"serve", "--replay", workload,
                                 "--replay-speed", "0", "--exit-after-replay"};
  serve.insert(serve.end(), platform_flags.begin(), platform_flags.end());
  const CliRun live = run(serve);
  ASSERT_EQ(live.code, 0) << live.err;
  EXPECT_NE(live.out.find("replay speed max"), std::string::npos) << live.out;
  EXPECT_NE(live.out.find(" " + std::to_string(completed) + " completed"),
            std::string::npos)
      << live.out;
  EXPECT_NE(live.out.find(" " + std::to_string(reschedules) + " reschedule(s)"),
            std::string::npos)
      << live.out;
  std::remove(workload.c_str());
}

}  // namespace
}  // namespace dls::cli
