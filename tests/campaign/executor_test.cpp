// CaseExecutor carried-state test: a case's values must be a pure
// function of (spec, case index), whatever the executor solved before.
// The executor's BatchSolver arena is reused across cases, so any solver
// buffer that leaks content from one solve into the next shows up here.
#include "campaign/exec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/runner.hpp"

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

}  // namespace
}  // namespace dls::campaign
