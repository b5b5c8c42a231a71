// Distributed-execution bench: the committed example campaign run
// single-process vs through the src/dist coordinator with a loopback
// worker fleet (in-process threads, real sockets). Two questions:
//
//   * what does distribution cost on one machine? The coordinator adds
//     frame encoding, TCP hops and the ordered re-fold, so a loopback
//     fleet should land near the single-process time (the win is
//     fleet scale-out across machines, which a one-host bench cannot
//     show) — overhead_ratio records the price;
//   * is the tentpole invariant intact under load? The bench asserts
//     the distributed report is BYTE-identical to the single-process
//     one before printing anything.
//
// DLS_BENCH_SCALE scales the spec's replication count, DLS_BENCH_JOBS
// the per-side thread count. One JSON line (prefix "JSON ") lands in
// BENCH_dist.json via CI.
#include <cstdlib>
#include <future>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "exp/experiment.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace {

std::string report_json(const dls::campaign::CampaignReport& report) {
  std::ostringstream os;
  dls::campaign::write_report_json(report, os);
  return os.str();
}

}  // namespace

int main() try {
  using namespace dls;
  campaign::ScenarioSpec spec = campaign::read_campaign_file(
      {"data/example.campaign", "../data/example.campaign"});
  spec.replications = exp::scaled(4 * spec.replications);
  const int jobs = exp::bench_jobs() == 0 ? 2 : exp::bench_jobs();
  constexpr std::size_t kWorkers = 2;

  std::cout << "# Distributed campaign loopback: coordinator + "
            << kWorkers << " in-process workers vs single process\n"
            << "# spec: " << spec.name << ", " << spec.replications
            << " replications, " << jobs << " thread(s) per side\n";

  WallTimer single_timer;
  const campaign::CampaignReport single =
      campaign::run_campaign(spec, {.jobs = jobs});
  const double single_seconds = single_timer.seconds();
  const std::string reference = report_json(single);

  auto port_promise = std::make_shared<std::promise<std::uint16_t>>();
  std::shared_future<std::uint16_t> port = port_promise->get_future().share();
  dist::CoordinatorOptions copt;
  copt.range_size = 8;
  copt.on_listen = [port_promise](std::uint16_t p) {
    port_promise->set_value(p);
  };

  WallTimer dist_timer;
  std::vector<std::thread> fleet;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    fleet.emplace_back([&port, jobs] {
      dist::WorkerOptions wopt;
      wopt.host = "127.0.0.1";
      wopt.port = port.get();
      wopt.jobs = jobs;
      (void)dist::run_worker(wopt);
    });
  }
  const dist::CoordinatorResult distributed = dist::serve_campaign(spec, copt);
  for (std::thread& t : fleet) t.join();
  const double dist_seconds = dist_timer.seconds();

  const bool identical = report_json(distributed.report) == reference;
  if (!identical || !distributed.complete) {
    std::cerr << "FATAL: distributed report diverged from the "
                 "single-process reference\n";
    return 1;
  }

  const double overhead =
      single_seconds > 0.0 ? dist_seconds / single_seconds : 0.0;
  std::cout << "single-process: " << single_seconds << "s for "
            << single.total_cases << " cases\n"
            << "distributed:    " << dist_seconds << "s ("
            << distributed.workers_seen << " workers, overhead "
            << overhead << "x), byte-identical report\n";

  std::ostringstream js;
  js.precision(6);
  js << "{\"bench\":\"dist_loopback\",\"cases\":" << single.total_cases
     << ",\"workers\":" << kWorkers << ",\"jobs_per_side\":" << jobs
     << ",\"single_seconds\":" << single_seconds
     << ",\"distributed_seconds\":" << dist_seconds
     << ",\"overhead_ratio\":" << overhead
     << ",\"identical\":1}";
  std::cout << "JSON " << js.str() << "\n";
  return 0;
} catch (const dls::Error& e) {
  std::cerr << "bench_dist_loopback: " << e.what() << '\n';
  return 1;
}
