// Shared pieces of the serve-k16 workload: its seeded request stream,
// which the live load generator (serve_load.cpp) sends to a `dls serve`
// child and the traced run (serve_layers.cpp) replays in-process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "platform/platform.hpp"
#include "spans.hpp"

namespace perfbench::serve {

constexpr int kClusters = 16;
constexpr int kMaxLoads = 64;

/// One open-loop request. A depart cancels the load its arrival
/// (`arrival`, an index into the arrivals) was admitted as.
struct Request {
  double due_s = 0.0;  ///< seconds from the start of the phase
  bool depart = false;
  int arrival = 0;
  int cluster = 0;
  double payoff = 1.0;
  double load = 0.0;
  [[nodiscard]] std::string line(int id) const;  ///< line-protocol command
};

/// The open-loop stream over [0, horizon_s), sorted by due time:
/// Poisson arrivals at 400/s sized for about half the platform's
/// speed, with about one in ten a long load cancelled shortly after.
[[nodiscard]] std::vector<Request> open_loop_stream(std::uint64_t seed,
                                                   double horizon_s);

/// The fixed 16-cluster connected platform of the workload.
[[nodiscard]] dls::platform::Platform make_platform();

/// Traced-run layer measurements: the same stream through an
/// in-process ServeEngine, parse_request over the bytes the generator
/// sent, and cold core::solve_loads on sampled active sets.
void measure_layers(const dls::platform::Platform& plat,
                    const std::vector<Request>& stream,
                    const std::vector<std::string>& sent_lines, SpanLog& spans,
                    Result& res);

}  // namespace perfbench::serve
