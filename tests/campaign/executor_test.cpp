// CaseExecutor carried-state test: a case's values must be a pure
// function of (spec, case index), whatever the executor solved before.
// The executor's BatchSolver arena is reused across cases, so any solver
// buffer that leaks content from one solve into the next shows up here.
#include "campaign/exec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "support/error.hpp"

#ifndef DLS_SOURCE_DIR
#define DLS_SOURCE_DIR "."
#endif

namespace dls::campaign {
namespace {

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    std::memcpy(&out[i], &values[i], sizeof(double));
  return out;
}

TEST(CaseExecutor, ValuesIndependentOfPreviouslyRunCases) {
  const ScenarioSpec spec = read_campaign_file(
      {std::string(DLS_SOURCE_DIR) + "/data/table1_sweep.campaign"});
  CampaignReport report;
  const std::vector<CaseDef> cases = expand_cases(spec, report);
  ASSERT_GT(cases.size(), 46u);
  // Cases 38 and 46 share the K=15 cell and replication 6 (they differ
  // only in the greedy exhaust policy), so they solve the same LPs; 40,
  // 42 and 44 solve other K=15 platforms in between on the same arena.
  ASSERT_EQ(cases[38].cell, cases[46].cell);
  ASSERT_EQ(cases[38].rep, cases[46].rep);

  CaseExecutor fresh(spec);
  const std::vector<double> expected = fresh.run(cases[46]);

  CaseExecutor carried(spec);
  for (const std::size_t i : {38u, 40u, 42u, 44u}) (void)carried.run(cases[i]);
  const std::vector<double> got = carried.run(cases[46]);
  EXPECT_EQ(bits(got), bits(expected));
}

TEST(CaseExecutor, ExhaustSiblingsAsOneUnitEqualStandaloneRuns) {
  // Cases 38 and 46 are the take and drop siblings of one K=15 cell and
  // replication: run as one unit they solve one relaxation, and each
  // must still equal a fresh standalone run bit for bit. So must 115
  // and 123 (K=35, sum), whose take and drop G and LPRG ratios differ.
  const ScenarioSpec spec = read_campaign_file(
      {std::string(DLS_SOURCE_DIR) + "/data/table1_sweep.campaign"});
  CampaignReport report;
  const std::vector<CaseDef> cases = expand_cases(spec, report);
  ASSERT_GT(cases.size(), 123u);

  std::vector<std::vector<double>> got;
  for (const auto& [a, b] :
       {std::pair<std::size_t, std::size_t>{38, 46}, {115, 123}}) {
    ASSERT_NE(cases[a].exhaust, cases[b].exhaust);
    CaseExecutor unit_exec(spec);
    const std::vector<CaseDef> unit{cases[a], cases[b]};
    got = unit_exec.run_unit(unit);
    ASSERT_EQ(got.size(), 2u);
    for (std::size_t k = 0; k < unit.size(); ++k) {
      CaseExecutor fresh(spec);
      EXPECT_EQ(bits(got[k]), bits(fresh.run(unit[k]))) << "case " << k;
    }
  }
  EXPECT_NE(bits(got[0]), bits(got[1]));  // 115 and 123 differ

  // A single-case unit is run(): same values.
  CaseExecutor single(spec);
  EXPECT_EQ(bits(single.run_unit({&cases[123], 1}).front()), bits(got[1]));

  // Cases of different replications are not siblings.
  const std::vector<CaseDef> mixed{cases[38], cases[47]};
  EXPECT_THROW((void)single.run_unit(mixed), Error);
}

}  // namespace
}  // namespace dls::campaign
