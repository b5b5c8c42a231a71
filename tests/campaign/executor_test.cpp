// CaseExecutor carried-state test: a case's values must be a pure
// function of (spec, case index), whatever the executor solved before.
// The executor's BatchSolver arena is reused across cases, so any solver
// buffer that leaks content from one solve into the next shows up here.
#include "campaign/exec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
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

/// The Table-1 case of (cell, objective, replication, exhaust value).
const CaseDef& find_case(const std::vector<CaseDef>& cases, int cell,
                         int objective, int rep, int exhaust) {
  const auto it = std::find_if(cases.begin(), cases.end(), [&](const CaseDef& d) {
    return d.cell == cell && d.objective == objective && d.rep == rep &&
           d.exhaust == exhaust;
  });
  EXPECT_NE(it, cases.end());
  return *it;
}

/// Every case of one execution unit, in case order.
std::vector<CaseDef> unit_cases(const std::vector<CaseDef>& cases,
                                std::size_t unit) {
  std::vector<CaseDef> out;
  for (const CaseDef& d : cases)
    if (d.unit == unit) out.push_back(d);
  return out;
}

TEST(CaseExecutor, ValuesIndependentOfPreviouslyRunCases) {
  const ScenarioSpec spec = read_campaign_file(
      {std::string(DLS_SOURCE_DIR) + "/data/table1_sweep.campaign"});
  CampaignReport report;
  const std::vector<CaseDef> cases = expand_cases(spec, report);
  // The take and drop siblings of the K=15 cell, maxmin, replication 6
  // solve the same LPs; the drop cases of replications 0, 2 and 4 solve
  // other K=15 platforms in between on the same arena.
  const std::vector<CaseDef> unit =
      unit_cases(cases, find_case(cases, 1, 0, 6, 0).unit);
  ASSERT_EQ(unit.size(), 2u);

  CaseExecutor fresh(spec);
  const std::vector<double> expected = fresh.run(unit[1]);

  CaseExecutor carried(spec);
  (void)carried.run(unit[0]);
  for (const int rep : {0, 2, 4}) (void)carried.run(find_case(cases, 1, 0, rep, 1));
  const std::vector<double> got = carried.run(unit[1]);
  EXPECT_EQ(bits(got), bits(expected));
}

TEST(CaseExecutor, ExhaustSiblingsAsOneUnitEqualStandaloneRuns) {
  // The take and drop siblings of one K=15 cell and replication share a
  // plan unit: run as one unit they solve one relaxation, and each must
  // still equal a fresh standalone run bit for bit. So must the unit of
  // K=35, sum, replication 3, whose take and drop G and LPRG ratios
  // differ.
  const ScenarioSpec spec = read_campaign_file(
      {std::string(DLS_SOURCE_DIR) + "/data/table1_sweep.campaign"});
  CampaignReport report;
  const std::vector<CaseDef> cases = expand_cases(spec, report);

  std::vector<std::vector<double>> got;
  std::vector<CaseDef> unit;
  for (const auto& [cell, objective, rep] :
       {std::tuple{1, 0, 6}, std::tuple{3, 1, 3}}) {
    unit = unit_cases(cases, find_case(cases, cell, objective, rep, 0).unit);
    ASSERT_EQ(unit.size(), 2u);
    ASSERT_NE(unit[0].exhaust, unit[1].exhaust);
    CaseExecutor unit_exec(spec);
    got = unit_exec.run_unit(unit);
    ASSERT_EQ(got.size(), 2u);
    for (std::size_t k = 0; k < unit.size(); ++k) {
      CaseExecutor fresh(spec);
      EXPECT_EQ(bits(got[k]), bits(fresh.run(unit[k]))) << "case " << k;
    }
  }
  EXPECT_NE(bits(got[0]), bits(got[1]));  // the K=35 siblings differ

  // A single-case unit is run(): same values.
  CaseExecutor single(spec);
  EXPECT_EQ(bits(single.run_unit({&unit[1], 1}).front()), bits(got[1]));

  // Cases of different units (here, replications) are not siblings.
  const CaseDef& take6 = find_case(cases, 1, 0, 6, 0);
  const CaseDef& drop7 = find_case(cases, 1, 0, 7, 1);
  ASSERT_NE(take6.unit, drop7.unit);
  const std::vector<CaseDef> mixed{take6, drop7};
  EXPECT_THROW((void)single.run_unit(mixed), Error);
}

}  // namespace
}  // namespace dls::campaign
