// The model-input flags of the dls tool reach the model: setting one
// changes the output against its default, and where a `.campaign` key
// mirrors the flag, the flag's path and the spec's path produce the
// same output. Also pins the removal of the flags nothing passed.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "campaign/spec.hpp"
#include "cli/cli.hpp"
#include "platform/generator.hpp"
#include "platform/serialization.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "temp_path.hpp"

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

std::vector<std::string> operator+(std::vector<std::string> a,
                                   const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// `dls campaign --spec` over `spec_text`, as JSON.
CliRun run_spec(const std::string& spec_text) {
  const std::string path = testutil::unique_temp_path("cli_flags", ".campaign");
  {
    std::ofstream f(path);
    f << spec_text;
  }
  CliRun r = run({"campaign", "--spec", path, "--jobs", "1", "--json"});
  std::remove(path.c_str());
  return r;
}

/// The mean of metric `name` in the first group of a campaign JSON report.
double json_mean(const std::string& json, const std::string& name) {
  const std::size_t at = json.find("{\"name\":\"" + name + "\"");
  EXPECT_NE(at, std::string::npos) << name;
  const std::size_t mean = json.find("\"mean\":", at);
  return std::strtod(json.c_str() + mean + 7, nullptr);
}

/// The first cell after `label` on its table row of `text`.
std::string row_cell(const std::string& text, const std::string& label) {
  const std::size_t at = text.find("\n" + label + " ");
  EXPECT_NE(at, std::string::npos) << label << " in\n" << text;
  std::istringstream row(text.substr(at + 1));
  std::string first, cell;
  row >> first >> cell;
  return cell;
}

struct FlagCase {
  const char* flag;
  const char* value;
  const char* key;  ///< the `.campaign` key mirroring the flag
};

TEST(CliModelFlags, GeneratorFlagsMatchTheirCampaignKeys) {
  const std::vector<std::string> base{"generate", "--clusters", "5", "--seed", "3",
                                      "--connected"};
  const CliRun defaults = run(base);
  ASSERT_EQ(defaults.code, 0) << defaults.err;
  for (const FlagCase& c : {FlagCase{"--connectivity", "0.9", "connectivity"},
                            FlagCase{"--heterogeneity", "0.1", "heterogeneity"},
                            FlagCase{"--gateway", "100", "gateway"},
                            FlagCase{"--bw", "20", "bw"},
                            FlagCase{"--maxcon", "5", "maxcon"},
                            FlagCase{"--latency", "7", "latency"}}) {
    const CliRun set = run(base + std::vector<std::string>{c.flag, c.value});
    ASSERT_EQ(set.code, 0) << c.flag << ": " << set.err;
    EXPECT_NE(set.out, defaults.out) << c.flag;

    std::istringstream spec_text(std::string("dls-campaign 1\n"
                                             "platform generate clusters=5 connected=1 ") +
                                 c.key + "=" + c.value + "\nworkload none\n");
    const campaign::ScenarioSpec spec = campaign::read_campaign(spec_text);
    Rng rng(3);
    std::ostringstream from_spec;
    platform::write_platform(platform::generate_platform(spec.platforms[0].params, rng),
                             from_spec);
    EXPECT_EQ(set.out, from_spec.str()) << c.flag;
  }
}

TEST(CliModelFlags, ArrivalModelFlagsMatchTheirCampaignKeys) {
  const std::vector<std::string> platform{"--clusters", "4", "--connected", "--seed", "3"};
  // Enough arrivals to span several ON/OFF windows.
  const std::vector<std::string> stream{"--arrivals", "200", "--arrival-model", "onoff"};
  const auto saved = [&](const std::vector<std::string>& extra) {
    const std::string path = testutil::unique_temp_path("cli_flags", ".workload");
    const CliRun r = run(std::vector<std::string>{"online"} + platform + stream + extra +
                         std::vector<std::string>{"--save-workload", path});
    EXPECT_EQ(r.code, 0) << r.err;
    std::string text = slurp(path);
    std::remove(path.c_str());
    return text;
  };
  const std::string defaults = saved({});
  for (const FlagCase& c : {FlagCase{"--mean-on", "5", "mean-on"},
                            FlagCase{"--mean-off", "30", "mean-off"},
                            FlagCase{"--load-spread", "0.9", "load-spread"},
                            FlagCase{"--payoff-spread", "0.1", "payoff-spread"}}) {
    EXPECT_NE(saved({c.flag, c.value}), defaults) << c.flag;

    // `--reps` hands the flags to the campaign runner as a spec.
    const CliRun reps = run(std::vector<std::string>{"online", "--reps", "2", "--jobs", "1",
                                                     "--json", c.flag, c.value} +
                            platform + stream);
    ASSERT_EQ(reps.code, 0) << c.flag << ": " << reps.err;
    const CliRun spec = run_spec(
        std::string("dls-campaign 1\nname online\nseed 3\nreplications 2\n"
                    "method g\nobjective maxmin\nwarm auto\n"
                    "platform generate clusters=4 connected=1\n"
                    "workload onoff label=stream arrivals=200 ") +
        c.key + "=" + c.value + "\n");
    ASSERT_EQ(spec.code, 0) << spec.err;
    EXPECT_EQ(reps.out, spec.out) << c.flag;
  }
}

TEST(CliModelFlags, HorizonMatchesItsCampaignKey) {
  const std::vector<std::string> base{"dynamics", "--clusters", "4", "--connected",
                                      "--seed", "3", "--arrivals", "15",
                                      "--event-rate", "0.2"};
  const auto saved = [&](const std::vector<std::string>& extra) {
    const std::string path = testutil::unique_temp_path("cli_flags", ".events");
    const CliRun r = run(base + extra + std::vector<std::string>{"--save-events", path});
    EXPECT_EQ(r.code, 0) << r.err;
    std::string text = slurp(path);
    std::remove(path.c_str());
    return text;
  };
  EXPECT_NE(saved({"--horizon", "400"}), saved({}));

  const CliRun reps = run(base + std::vector<std::string>{"--reps", "2", "--jobs", "1",
                                                          "--horizon", "400", "--json"});
  ASSERT_EQ(reps.code, 0) << reps.err;
  const CliRun spec = run_spec(
      "dls-campaign 1\nname dynamics\nseed 3\nreplications 2\n"
      "method g\nobjective maxmin\nwarm auto\n"
      "platform generate clusters=4 connected=1\n"
      "workload poisson label=static arrivals=15\n"
      "workload poisson label=dynamic arrivals=15\n"
      "dynamics scenario event-rate=0.2 horizon=400\n");
  ASSERT_EQ(spec.code, 0) << spec.err;
  EXPECT_EQ(reps.out, spec.out);
}

TEST(CliModelFlags, WindowMatchesItsCampaignKey) {
  // Slow clusters behind long routes: the schedule ships load remotely
  // and the W/RTT ceiling binds.
  const std::string platform = testutil::unique_temp_path("cli_flags", ".platform");
  ASSERT_EQ(run({"generate", "--clusters", "5", "--seed", "3", "--connected",
                 "--latency", "20", "--heterogeneity", "0.8", "--speed", "50",
                 "--out", platform})
                .code,
            0);
  const std::vector<std::string> simulate{"simulate", "--platform", platform,
                                          "--policy", "window", "--periods", "3"};
  const CliRun defaults = run(simulate);
  const CliRun narrow = run(simulate + std::vector<std::string>{"--window", "0.5"});
  ASSERT_EQ(defaults.code, 0) << defaults.err;
  ASSERT_EQ(narrow.code, 0) << narrow.err;
  EXPECT_NE(narrow.out, defaults.out);

  const std::vector<std::string> online{"online", "--platform", platform, "--seed", "3",
                                        "--arrivals", "15", "--rate-model", "sim",
                                        "--policy", "window", "--reps", "2",
                                        "--jobs", "1", "--json"};
  const CliRun reps = run(online + std::vector<std::string>{"--window", "0.5"});
  ASSERT_EQ(reps.code, 0) << reps.err;
  EXPECT_NE(reps.out, run(online).out);
  const CliRun spec = run_spec(
      "dls-campaign 1\nname online\nseed 3\nreplications 2\n"
      "method g\nobjective maxmin\nwarm auto\n"
      "rate-model sim\npolicy window\nwindow 0.5\n"
      "platform file path=" + platform + " label=platform\n"
      "workload poisson label=stream arrivals=15\n");
  ASSERT_EQ(spec.code, 0) << spec.err;
  EXPECT_EQ(reps.out, spec.out);
  std::remove(platform.c_str());
}

TEST(CliModelFlags, SweepFlagsMatchTheirCampaignKeys) {
  const std::vector<std::string> sweep{"sweep", "--clusters", "4", "--cases", "3",
                                       "--seed", "5", "--jobs", "1"};
  // --lprr adds the LPRR method: a row the default sweep lacks, whose
  // mean is the spec path's `ratio_lprr`.
  const CliRun plain = run(sweep);
  const CliRun lprr = run(sweep + std::vector<std::string>{"--lprr"});
  ASSERT_EQ(lprr.code, 0) << lprr.err;
  EXPECT_EQ(plain.out.find("\nLPRR "), std::string::npos);
  const CliRun lprr_spec = run_spec(
      "dls-campaign 1\nname sweep\nseed 5\nreplications 3\nobjective maxmin\n"
      "method g lpr lprg lprr\nplatform grid clusters=4\nworkload none\n");
  ASSERT_EQ(lprr_spec.code, 0) << lprr_spec.err;
  EXPECT_EQ(row_cell(lprr.out, "LPRR"),
            TextTable::fmt(json_mean(lprr_spec.out, "ratio_lprr"), 3));

  // --weight-spread draws the loads' objective weights.
  const std::vector<std::string> loads = sweep + std::vector<std::string>{"--loads", "3"};
  const CliRun spread = run(loads + std::vector<std::string>{"--weight-spread", "0.9"});
  ASSERT_EQ(spread.code, 0) << spread.err;
  EXPECT_NE(row_cell(spread.out, "objective"), row_cell(run(loads).out, "objective"));
  const CliRun spread_spec = run_spec(
      "dls-campaign 1\nname sweep-loads\nseed 5\nreplications 3\n"
      "platform grid clusters=4\nloads count=3 weight-spread=0.9\n");
  ASSERT_EQ(spread_spec.code, 0) << spread_spec.err;
  EXPECT_EQ(row_cell(spread.out, "objective"),
            TextTable::fmt(json_mean(spread_spec.out, "objective"), 4));
}

TEST(CliModelFlags, RemovedFlagsAreUnknownOptions) {
  const std::string trace = testutil::unique_temp_path("cli_flags", ".jsonl");
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"serve", "--clusters", "3", "--trace-capacity", "-1",
                                 "--trace-file", trace},
        std::vector<std::string>{"serve", "--clusters", "3", "--load-eps", "1e-3"},
        std::vector<std::string>{"online", "--loads", "--clusters", "3",
                                 "--arrivals", "5", "--load-eps", "1e-3"}}) {
    const CliRun r = run(args);
    EXPECT_EQ(r.code, 1) << args[2];
    EXPECT_NE(r.err.find("unknown option"), std::string::npos) << r.err;
  }
  std::remove(trace.c_str());
}

}  // namespace
}  // namespace dls::cli
