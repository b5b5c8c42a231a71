// Distributed-execution loopback tests: an in-process coordinator and
// worker fleet over 127.0.0.1 on an ephemeral port. The load-bearing
// assertion throughout is the tentpole invariant — the distributed
// report is BIT-identical (same JSON bytes) to the single-process
// runner for any worker count, death schedule, and resume point.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "temp_path.hpp"

namespace dls::dist {
namespace {

using campaign::CampaignReport;
using campaign::ScenarioSpec;

/// Offline sweep + online stream + dynamics replay over two platform
/// cells — every case kind in one matrix (mirrors the runner tests).
ScenarioSpec mixed_spec() {
  return campaign::from_text(
      "dls-campaign 1\n"
      "name mixed\n"
      "seed 7\n"
      "replications 2\n"
      "objective maxmin sum\n"
      "method g lprg\n"
      "platform generate clusters=5 connectivity=0.6 connected=1\n"
      "platform grid clusters=4\n"
      "workload none\n"
      "workload poisson arrivals=12 rate=1 mean-load=300\n"
      "dynamics scenario event-rate=0.1 severity=0.5\n");
}

std::string report_json(const CampaignReport& report) {
  std::ostringstream os;
  campaign::write_report_json(report, os);
  return os.str();
}

std::string single_process_json(const ScenarioSpec& spec) {
  return report_json(campaign::run_campaign(spec, {.jobs = 2}));
}

struct DistOutcome {
  std::optional<CoordinatorResult> result;
  std::exception_ptr coordinator_error;
  std::vector<WorkerResult> workers;
  std::vector<std::exception_ptr> worker_errors;
};

/// Runs the coordinator on this thread and each worker on its own,
/// wiring the ephemeral port through on_listen. Never hangs: if the
/// coordinator dies before listening, workers get port 0 and fail fast.
DistOutcome run_distributed(const ScenarioSpec& spec, CoordinatorOptions copt,
                            std::vector<WorkerOptions> wopts) {
  auto port_promise = std::make_shared<std::promise<std::uint16_t>>();
  std::shared_future<std::uint16_t> port = port_promise->get_future().share();
  copt.on_listen = [port_promise](std::uint16_t p) {
    port_promise->set_value(p);
  };
  copt.heartbeat_timeout = copt.heartbeat_timeout > 0 ? copt.heartbeat_timeout
                                                      : 15.0;

  DistOutcome out;
  out.workers.resize(wopts.size());
  out.worker_errors.resize(wopts.size());
  std::vector<std::thread> threads;
  threads.reserve(wopts.size());
  for (std::size_t i = 0; i < wopts.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        WorkerOptions o = wopts[i];
        o.host = "127.0.0.1";
        o.port = port.get();
        o.heartbeat_period = 0.2;
        out.workers[i] = run_worker(o);
      } catch (...) {
        out.worker_errors[i] = std::current_exception();
      }
    });
  }
  try {
    out.result = serve_campaign(spec, copt);
  } catch (...) {
    out.coordinator_error = std::current_exception();
  }
  try {
    port_promise->set_value(0);  // unblock workers if listen never happened
  } catch (const std::future_error&) {
  }
  for (std::thread& t : threads) t.join();
  return out;
}

TEST(DistLoopback, BitIdenticalToSingleProcess) {
  const ScenarioSpec spec = mixed_spec();
  const std::string reference = single_process_json(spec);

  CoordinatorOptions copt;
  copt.range_size = 3;
  std::vector<std::size_t> sunk;
  copt.case_sink = [&sunk](const CampaignReport&,
                           const campaign::CaseRecord& r) {
    sunk.push_back(r.index);
  };
  const DistOutcome out = run_distributed(
      spec, copt, {{.jobs = 2}, {.jobs = 2}});

  ASSERT_FALSE(out.coordinator_error);
  ASSERT_TRUE(out.result.has_value());
  EXPECT_TRUE(out.result->complete);
  EXPECT_EQ(report_json(out.result->report), reference);
  EXPECT_EQ(out.result->report.executed_cases,
            out.result->report.total_cases);

  // The case stream arrives strictly in case order, exactly once each.
  ASSERT_EQ(sunk.size(), out.result->report.total_cases);
  for (std::size_t i = 0; i < sunk.size(); ++i) EXPECT_EQ(sunk[i], i);

  for (const auto& err : out.worker_errors) EXPECT_FALSE(err);
  std::size_t cases = 0;
  for (const WorkerResult& w : out.workers) cases += w.cases_run;
  EXPECT_EQ(cases, out.result->report.total_cases);
}

/// Cold simplex solves so far (dls_lp_solves_total{start="cold"}).
std::uint64_t cold_solves() {
  for (const obs::SeriesSnapshot& s : obs::registry().snapshot().series)
    if (s.name == "dls_lp_solves_total" && s.labels == "start=\"cold\"")
      return s.counter;
  return 0;
}

TEST(DistLoopback, ExhaustSiblingsSolveOnceUnderLeases) {
  // Take and drop siblings share one relaxation. An odd range size
  // would cut a unit in two; the coordinator extends the lease to the
  // unit's end instead, and the worker runs the unit whole, so the fleet
  // cold-solves exactly what the in-process runner does: one relaxation
  // per unit, not one per case.
  const ScenarioSpec spec = campaign::from_text(
      "dls-campaign 1\n"
      "name siblings\n"
      "seed 5\n"
      "replications 5\n"
      "objective maxmin\n"
      "method g lpr lprg\n"
      "exhaust take drop\n"
      "platform grid clusters=5\n"
      "workload none\n");
  const std::uint64_t before_single = cold_solves();
  const std::string reference = single_process_json(spec);
  const std::uint64_t single = cold_solves() - before_single;
  EXPECT_EQ(single, 5u);

  CoordinatorOptions copt;
  copt.range_size = 3;
  const std::uint64_t before_dist = cold_solves();
  const DistOutcome out = run_distributed(spec, copt, {{.jobs = 2}, {.jobs = 1}});
  const std::uint64_t dist = cold_solves() - before_dist;

  ASSERT_FALSE(out.coordinator_error);
  ASSERT_TRUE(out.result.has_value());
  EXPECT_TRUE(out.result->complete);
  EXPECT_EQ(report_json(out.result->report), reference);
  for (const auto& err : out.worker_errors) EXPECT_FALSE(err);
  EXPECT_EQ(dist, single);
}

TEST(DistLoopback, WorkerDeathRequeuesAndStaysBitIdentical) {
  const ScenarioSpec spec = mixed_spec();
  const std::string reference = single_process_json(spec);

  CoordinatorOptions copt;
  copt.range_size = 3;
  // One worker drops its connection on its second lease (death seen as
  // EOF with the lease outstanding); the survivor finishes the matrix.
  const DistOutcome out = run_distributed(
      spec, copt, {{.jobs = 1, .die_on_range = 2}, {.jobs = 2}});

  ASSERT_FALSE(out.coordinator_error);
  ASSERT_TRUE(out.result.has_value());
  EXPECT_TRUE(out.result->complete);
  EXPECT_GE(out.result->worker_deaths, 1u);
  EXPECT_GE(out.result->ranges_requeued, 1u);
  EXPECT_EQ(report_json(out.result->report), reference);
}

TEST(DistLoopback, PoisonedCaseFailsItsRangeOnceThenSucceeds) {
  const ScenarioSpec spec = mixed_spec();
  const std::string reference = single_process_json(spec);

  // The poisoned case throws on first execution only: the range FAILs,
  // is re-queued once, and the retry succeeds — exercising both the
  // per-case catch in the worker (process survives) and the
  // requeue-once budget in the coordinator.
  auto tripped = std::make_shared<std::atomic<bool>>(false);
  WorkerOptions wopt;
  wopt.jobs = 2;
  wopt.fail_case = [tripped](std::size_t index) {
    return index == 4 && !tripped->exchange(true);
  };

  CoordinatorOptions copt;
  copt.range_size = 3;
  const DistOutcome out = run_distributed(spec, copt, {wopt});

  ASSERT_FALSE(out.coordinator_error);
  ASSERT_TRUE(out.result.has_value());
  EXPECT_TRUE(out.result->complete);
  EXPECT_EQ(out.result->ranges_requeued, 1u);
  EXPECT_EQ(out.result->worker_deaths, 0u);  // the process kept serving
  EXPECT_EQ(report_json(out.result->report), reference);
}

TEST(DistLoopback, TwiceFailedRangeAbortsTheCampaign) {
  const ScenarioSpec spec = mixed_spec();

  WorkerOptions wopt;
  wopt.jobs = 2;
  wopt.fail_case = [](std::size_t index) { return index == 4; };

  CoordinatorOptions copt;
  copt.range_size = 3;
  const DistOutcome out = run_distributed(spec, copt, {wopt});

  ASSERT_TRUE(static_cast<bool>(out.coordinator_error));
  try {
    std::rethrow_exception(out.coordinator_error);
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("failed 2 time(s)"),
              std::string::npos)
        << e.what();
  }
  // The worker was told why, and was not simply cut off.
  ASSERT_FALSE(out.worker_errors[0]);
  EXPECT_TRUE(out.workers[0].aborted);
  EXPECT_NE(out.workers[0].abort_message.find("injected failure"),
            std::string::npos);
}

TEST(DistLoopback, CheckpointResumeSkipsCompletedWorkBitIdentically) {
  const ScenarioSpec spec = mixed_spec();
  const std::string reference = single_process_json(spec);
  const std::string path =
      testutil::unique_temp_path("dist_loopback_resume", ".ckpt");
  std::remove(path.c_str());

  // Phase 1: snapshot after every range, stop after the third snapshot
  // — a coordinator killed mid-campaign with a fresh checkpoint.
  CoordinatorOptions first;
  first.range_size = 3;
  first.checkpoint_path = path;
  first.snapshot_every = 1;
  first.exit_after_snapshots = 3;
  const DistOutcome interrupted =
      run_distributed(spec, first, {{.jobs = 2}});
  ASSERT_FALSE(interrupted.coordinator_error);
  ASSERT_TRUE(interrupted.result.has_value());
  EXPECT_FALSE(interrupted.result->complete);
  const std::size_t folded = interrupted.result->folded_cases;
  EXPECT_GT(folded, 0u);

  // Phase 2: a new coordinator resumes from the snapshot with a fresh
  // fleet. Completed ranges must not be re-executed, and the final
  // report must match the uninterrupted single-process run bitwise.
  CoordinatorOptions second;
  second.range_size = 3;
  second.checkpoint_path = path;
  second.snapshot_every = 1;
  second.resume = true;
  const DistOutcome resumed = run_distributed(spec, second, {{.jobs = 2}});
  ASSERT_FALSE(resumed.coordinator_error);
  ASSERT_TRUE(resumed.result.has_value());
  EXPECT_TRUE(resumed.result->complete);
  EXPECT_GE(resumed.result->resumed_cases, folded);
  EXPECT_GT(resumed.result->resumed_cases, 0u);
  EXPECT_EQ(resumed.result->executed_cases,
            resumed.result->report.total_cases - resumed.result->resumed_cases);
  // "Not re-executed" is observable at the worker: it ran exactly the
  // remainder of the matrix.
  EXPECT_EQ(resumed.workers[0].cases_run,
            resumed.result->report.total_cases - resumed.result->resumed_cases);
  EXPECT_EQ(report_json(resumed.result->report), reference);
  std::remove(path.c_str());
}

TEST(DistLoopback, ResumeRefusesAnEditedSpec) {
  const ScenarioSpec spec = mixed_spec();
  const std::string path =
      testutil::unique_temp_path("dist_loopback_refuse", ".ckpt");
  std::remove(path.c_str());

  CoordinatorOptions first;
  first.range_size = 3;
  first.checkpoint_path = path;
  first.snapshot_every = 1;
  first.exit_after_snapshots = 1;
  const DistOutcome interrupted =
      run_distributed(spec, first, {{.jobs = 2}});
  ASSERT_FALSE(interrupted.coordinator_error);

  // Same campaign, different seed: a different case matrix. Resuming
  // with the old checkpoint must be refused before any socket work.
  ScenarioSpec edited = spec;
  edited.seed = 8;
  CoordinatorOptions second;
  second.checkpoint_path = path;
  second.resume = true;
  try {
    (void)serve_campaign(edited, second);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("different campaign spec"),
              std::string::npos);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dls::dist
