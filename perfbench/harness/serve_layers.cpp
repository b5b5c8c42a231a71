// serve-k16 traced-run layers, measured in-process on the open-loop
// stream the live daemon received.
#include <string_view>
#include <utility>

#include "core/multi_solve.hpp"
#include "promtext.hpp"
#include "serve.hpp"
#include "serve/engine.hpp"
#include "serve/http.hpp"
#include "support/timer.hpp"

namespace perfbench::serve {

namespace {

constexpr int kColdSampleEvery = 20;  // arrivals between cold solve samples
constexpr int kParseRounds = 20;

}  // namespace

void measure_layers(const dls::platform::Platform& plat,
                    const std::vector<Request>& stream,
                    const std::vector<std::string>& sent_lines, SpanLog& spans,
                    Result& res) {
  // The daemon's engine, fed the same requests at their due times as
  // virtual times (the daemon maps its own wall clock instead).
  dls::serve::EngineOptions options;
  options.sched.solve.objective = dls::core::MultiObjective::WeightedSum;
  options.max_loads = kMaxLoads;
  dls::serve::ServeEngine engine(plat, options);
  std::vector<int> id_of;
  std::vector<double> call_us, cold_us;
  constexpr int kTid = 2;
  for (const Request& r : stream) {
    {
      const Scope s(&spans, "serve.engine.advance", -1, r.arrival, kTid);
      engine.advance_to(r.due_s);
    }
    const std::uint64_t t0 = dls::now_ns();
    if (r.depart) {
      const int id = id_of[static_cast<std::size_t>(r.arrival)];
      const Scope s(&spans, "serve.engine.depart", -1, r.arrival, kTid);
      if (id >= 0) (void)engine.depart(r.due_s, id);
    } else {
      const Scope s(&spans, "serve.engine.arrive", -1, r.arrival, kTid);
      const auto admit = engine.arrive(r.due_s, r.cluster, r.payoff, r.load);
      id_of.push_back(admit.admit == dls::serve::Admit::Admitted ? admit.id : -1);
    }
    call_us.push_back(static_cast<double>(dls::now_ns() - t0) * 1e-3);
    if (r.depart || r.arrival % kColdSampleEvery != 0) continue;
    dls::core::LoadSet set;
    for (const int id : engine.active_ids()) {
      const auto& app = engine.apps()[static_cast<std::size_t>(id)];
      dls::core::LoadSpec spec;
      spec.source = app.cluster;
      spec.weight = app.payoff;
      set.loads.push_back(std::move(spec));
    }
    const Scope s(&spans, "core.solve_loads_cold", -1, r.arrival, kTid);
    const std::uint64_t c0 = dls::now_ns();
    (void)dls::core::solve_loads(plat, set, options.sched.solve);
    cold_us.push_back(static_cast<double>(dls::now_ns() - c0) * 1e-3);
  }
  const Summary calls = summarize(call_us);
  res.metrics["serve.engine_call_us_p50"] = calls.p50;
  res.metrics["serve.engine_call_us_tail"] = calls.tail;
  res.metrics["core.solve_loads_cold_us"] = median(cold_us);

  // The request parser over the exact bytes the generator sent.
  std::size_t parsed = 0;
  const std::uint64_t p0 = dls::now_ns();
  for (int round = 0; round < kParseRounds; ++round)
    for (const std::string& line : sent_lines)
      parsed += dls::serve::parse_request(line).consumed > 0;
  const double parse_ns = static_cast<double>(dls::now_ns() - p0) /
                          static_cast<double>(kParseRounds * sent_lines.size());
  res.check("serve: parse_request consumes every recorded request",
            parsed == kParseRounds * sent_lines.size());
  res.metrics["serve.parse_ns"] = parse_ns;
  add_render_metrics(res);
}

}  // namespace perfbench::serve
