// .campaign parser tests: round-trip bit-exactness, defaults, and
// line-numbered diagnostics on malformed or contradictory specs.
#include "campaign/spec.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/error.hpp"

namespace dls::campaign {
namespace {

const char* kFullSpec =
    "dls-campaign 1\n"
    "name everything\n"
    "seed 99\n"
    "replications 3\n"
    "payoff-spread 0.25\n"
    "rate-model sim\n"
    "policy tcp\n"
    "window 25\n"
    "objective maxmin sum\n"
    "method g lprg lp\n"
    "warm auto never\n"
    "exhaust take drop\n"
    "platform generate clusters=6,10 connectivity=0.5 connected=1\n"
    "platform grid clusters=5,15\n"
    "platform file path=data/grid_federation.platform\n"
    "workload none\n"
    "workload batch count=4 mean-load=300\n"
    "workload poisson arrivals=20 rate=2 mean-load=250 load-spread=0.25\n"
    "dynamics scenario event-rate=0.1 severity=0.75 horizon=500\n"
    "workload onoff arrivals=10 burst-rate=3 mean-on=5 mean-off=15\n"
    "dynamics trace path=data/x.events\n"
    "workload trace path=data/x.workload\n";

TEST(CampaignSpec, ParsesEveryAxis) {
  const ScenarioSpec spec = from_text(kFullSpec);
  EXPECT_EQ(spec.name, "everything");
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.replications, 3);
  EXPECT_DOUBLE_EQ(spec.payoff_spread, 0.25);
  EXPECT_EQ(spec.rate_model, online::RateModel::Simulated);
  EXPECT_EQ(spec.sim_policy, sim::SharingPolicy::TcpRttBias);
  EXPECT_DOUBLE_EQ(spec.sim_window_units, 25.0);
  ASSERT_EQ(spec.objectives.size(), 2u);
  ASSERT_EQ(spec.methods.size(), 3u);
  EXPECT_EQ(spec.methods[2], Method::Lp);
  ASSERT_EQ(spec.warm.size(), 2u);
  ASSERT_EQ(spec.exhaust.size(), 2u);
  // generate clusters=6,10 expands into two cells + 2 grid + 1 file.
  ASSERT_EQ(spec.platforms.size(), 5u);
  EXPECT_EQ(spec.platforms[0].params.num_clusters, 6);
  EXPECT_EQ(spec.platforms[1].params.num_clusters, 10);
  EXPECT_TRUE(spec.platforms[0].params.ensure_connected);
  EXPECT_EQ(spec.platforms[2].kind, PlatformSource::Kind::Grid);
  EXPECT_EQ(spec.platforms[3].grid_clusters, 15);
  EXPECT_EQ(spec.platforms[4].kind, PlatformSource::Kind::File);
  EXPECT_EQ(spec.platforms[4].path, "data/grid_federation.platform");
  // Scenarios: none, batch, poisson+scenario-dynamics, onoff+trace-
  // dynamics, workload trace.
  ASSERT_EQ(spec.scenarios.size(), 5u);
  EXPECT_TRUE(spec.scenarios[0].offline());
  EXPECT_EQ(spec.scenarios[1].kind, WorkloadSource::Kind::Batch);
  EXPECT_EQ(spec.scenarios[2].dyn, WorkloadSource::DynKind::Scenario);
  EXPECT_DOUBLE_EQ(spec.scenarios[2].severity, 0.75);
  EXPECT_EQ(spec.scenarios[3].dyn, WorkloadSource::DynKind::Trace);
  EXPECT_EQ(spec.scenarios[3].events_path, "data/x.events");
  EXPECT_EQ(spec.scenarios[4].kind, WorkloadSource::Kind::Trace);
  // Derived labels are unique and stable.
  EXPECT_EQ(spec.platforms[0].label, "gen:clusters=6");
  EXPECT_EQ(spec.platforms[2].label, "grid:K=5");
  EXPECT_EQ(spec.scenarios[2].label, "poisson");
}

TEST(CampaignSpec, RoundTripIsBitExact) {
  const ScenarioSpec spec = from_text(kFullSpec);
  const std::string canonical = to_text(spec);
  const ScenarioSpec reparsed = from_text(canonical);
  // write -> read -> write must be byte-identical.
  EXPECT_EQ(to_text(reparsed), canonical);
}

TEST(CampaignSpec, DedupedLabelsSurviveTheRoundTrip) {
  // Two identical unlabeled workload lines force a deduplication
  // suffix; the suffix must not collide with the comment character, or
  // the canonical re-read silently drops every following key=value.
  const ScenarioSpec spec = from_text(
      "dls-campaign 1\n"
      "platform generate clusters=4\n"
      "workload poisson arrivals=7 rate=2\n"
      "workload poisson arrivals=9 rate=3\n");
  ASSERT_EQ(spec.scenarios.size(), 2u);
  EXPECT_NE(spec.scenarios[0].label, spec.scenarios[1].label);
  const std::string canonical = to_text(spec);
  const ScenarioSpec reparsed = from_text(canonical);
  EXPECT_EQ(to_text(reparsed), canonical);
  ASSERT_EQ(reparsed.scenarios.size(), 2u);
  EXPECT_EQ(reparsed.scenarios[1].poisson.count, 9);
  EXPECT_DOUBLE_EQ(reparsed.scenarios[1].poisson.rate, 3.0);
}

TEST(CampaignSpec, DefaultsAreFilledIn) {
  const ScenarioSpec spec = from_text(
      "dls-campaign 1\n"
      "platform generate clusters=4\n");
  EXPECT_EQ(spec.name, "campaign");
  EXPECT_EQ(spec.replications, 1);
  ASSERT_EQ(spec.scenarios.size(), 1u);  // defaults to the offline sweep
  EXPECT_TRUE(spec.scenarios[0].offline());
  EXPECT_EQ(spec.methods.size(), 3u);    // g lpr lprg
  EXPECT_EQ(spec.objectives.size(), 1u);
  // Round trip holds for the minimal spec too.
  EXPECT_EQ(to_text(from_text(to_text(spec))), to_text(spec));
}

TEST(CampaignSpec, CommentsAndBlankLinesAreSkipped) {
  const ScenarioSpec spec = from_text(
      "# a comment\n"
      "\n"
      "dls-campaign 1\n"
      "name c  # trailing comment\n"
      "platform generate clusters=4  # another\n");
  EXPECT_EQ(spec.name, "c");
  EXPECT_EQ(spec.platforms.size(), 1u);
}

/// Asserts the parse fails and the message names the expected line.
void expect_fail_at(const std::string& text, int line,
                    const std::string& needle) {
  try {
    (void)from_text(text);
    FAIL() << "expected a parse failure mentioning '" << needle << "'";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line " + std::to_string(line)), std::string::npos)
        << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(CampaignSpec, DiagnosticsNameTheLine) {
  // Bad header (no line number: nothing was parsed yet).
  EXPECT_THROW((void)from_text("dls-workload 1\n"), Error);
  EXPECT_THROW((void)from_text(""), Error);
  // Unknown keyword.
  expect_fail_at("dls-campaign 1\nfrobnicate 3\n", 2, "unknown keyword");
  // A retired keyword is just as unknown.
  expect_fail_at("dls-campaign 1\nmax-support-change 4\n", 2, "unknown keyword");
  // Unknown key on a platform line.
  expect_fail_at("dls-campaign 1\nplatform generate clusterz=4\n", 2,
                 "unknown key 'clusterz'");
  // Malformed number.
  expect_fail_at("dls-campaign 1\nplatform generate clusters=abc\n", 2,
                 "malformed number");
  // Truncated: missing value after '='.
  expect_fail_at("dls-campaign 1\nplatform generate clusters=\n", 2,
                 "clusters");
  // Missing path.
  expect_fail_at("dls-campaign 1\nplatform file label=x\n", 2, "missing path=");
  // Unknown axis values.
  expect_fail_at("dls-campaign 1\nmethod g warp\nplatform grid clusters=4\n", 2,
                 "unknown method 'warp'");
  expect_fail_at("dls-campaign 1\nobjective best\nplatform grid clusters=4\n", 2,
                 "unknown objective");
  // Out-of-range values.
  expect_fail_at("dls-campaign 1\nreplications 0\n", 2, "replication count");
  expect_fail_at("dls-campaign 1\npayoff-spread 1.5\n", 2, "payoff spread");
}

TEST(CampaignSpec, ContradictionsAreRejectedWithLines) {
  // dynamics with no workload to attach to.
  expect_fail_at(
      "dls-campaign 1\nplatform grid clusters=4\ndynamics scenario\n", 3,
      "no preceding workload");
  // dynamics after an offline workload.
  expect_fail_at(
      "dls-campaign 1\nplatform grid clusters=4\nworkload none\n"
      "dynamics scenario event-rate=0.1\n",
      4, "requires a stream workload");
  // Two dynamics lines on one workload.
  expect_fail_at(
      "dls-campaign 1\nplatform grid clusters=4\n"
      "workload poisson arrivals=5\ndynamics scenario\ndynamics scenario\n",
      5, "duplicate dynamics");
  // lprr (offline-only) combined with a stream workload: the method
  // line is the contradiction the message points at.
  expect_fail_at(
      "dls-campaign 1\nmethod g lprr\nplatform grid clusters=4\n"
      "workload poisson arrivals=5\n",
      2, "lprr is offline-only");
  // Repeated axis values would expand into indistinguishable duplicate
  // groups; a repeated key on one line is a duplicate, not unknown.
  expect_fail_at("dls-campaign 1\nmethod g g\n", 2, "repeated method 'g'");
  expect_fail_at("dls-campaign 1\nobjective sum sum\n", 2,
                 "repeated objective 'sum'");
  expect_fail_at("dls-campaign 1\nplatform generate clusters=4 clusters=8\n", 2,
                 "duplicate key 'clusters'");
  // Duplicate explicit labels would make report groups (and the
  // static/dynamic degradation pairing) indistinguishable.
  expect_fail_at(
      "dls-campaign 1\nplatform grid clusters=4\n"
      "workload poisson label=x arrivals=5\nworkload poisson label=x arrivals=9\n",
      4, "duplicate label 'x'");
  expect_fail_at(
      "dls-campaign 1\nplatform grid label=p clusters=4\n"
      "platform grid label=p clusters=6\n",
      3, "duplicate label 'p'");
  // Duplicate singleton keys.
  expect_fail_at("dls-campaign 1\nname a\nname b\n", 3, "duplicate 'name'");
  expect_fail_at("dls-campaign 1\nmethod g\nmethod lpr\n", 3,
                 "duplicate 'method'");
  expect_fail_at("dls-campaign 1\npayoff-spread 0.2\npayoff-spread 0.8\n", 3,
                 "duplicate 'payoff-spread'");
  expect_fail_at("dls-campaign 1\nrate-model fluid\nrate-model sim\n", 3,
                 "duplicate 'rate-model'");
  // Trailing tokens on singleton lines.
  expect_fail_at("dls-campaign 1\nseed 42 43\n", 2, "trailing token '43'");
  expect_fail_at("dls-campaign 1\nreplications 2 extra\n", 2,
                 "trailing token 'extra'");
}

}  // namespace
}  // namespace dls::campaign
