// replay-k128: the online engine replaying a Poisson stream of loads on
// one shared LP at K=128, under a platform-event trace.
//
// Why this workload: the warm and basis-repaired LP path is nearly all
// of its wall time and no socket is touched, so an LP or rescheduler
// change shows strongly here and a serve-layer change shows nothing.
//
// A run alternates four timed engine passes over the stream (the
// throughput is over their summed wall time; the four reports must agree
// field for field) with four reconstruction passes: the active-load set
// of every engine event is recovered from the report and fed, in order,
// through DynamicPlatform::apply and MultiLoadRescheduler::reschedule —
// the calls the engine makes — so each event's latency can be timed
// from outside the library. The latency is the median over every timed
// event of every reconstruction pass. The traced run repeats the
// reconstruction with a span around every call.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common.hpp"
#include "core/multi_solve.hpp"
#include "dynamics/dynamic_platform.hpp"
#include "dynamics/events.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "online/engine.hpp"
#include "online/rescheduler.hpp"
#include "online/workload.hpp"
#include "platform/generator.hpp"
#include "promtext.hpp"
#include "spans.hpp"
#include "support/timer.hpp"

namespace perfbench {

namespace {

namespace dyn = dls::dynamics;

constexpr int kClusters = 128;
constexpr std::uint64_t kPlatformSeed = 128;  // fixed: LP cost depends on it
constexpr double kArrivalRate = 12.0;         // per virtual second
constexpr double kUtilization = 0.49;
constexpr double kArrivalsPerSecond = 32.0;   // sizes the stream to --seconds
constexpr int kPasses = 4;  // engine passes, each followed by a reconstruction pass
constexpr int kSetupRepeats = 3;  // before each pass
constexpr double kWarmupShare = 0.2;          // leading events not timed
constexpr int kColdCheckEvery = 40;
constexpr int kLinkFailures = 2;

struct Inputs {
  dls::platform::Platform plat;
  dls::online::Workload workload;
  dyn::EventTrace trace;
};

dls::platform::Platform make_platform() {
  dls::platform::GeneratorParams params;
  params.num_clusters = kClusters;
  params.ensure_connected = true;
  dls::Rng rng(kPlatformSeed);
  return dls::platform::generate_platform(params, rng);
}

Inputs make_inputs(const RunConfig& cfg, dls::platform::Platform plat) {
  Inputs in{std::move(plat), {}, {}};
  dls::Rng rng(cfg.seed);
  double total_speed = 0.0;
  for (int k = 0; k < kClusters; ++k) total_speed += in.plat.cluster(k).speed;
  dls::online::PoissonParams pp;
  pp.count = static_cast<int>(std::lround(kArrivalsPerSecond * cfg.seconds));
  pp.rate = kArrivalRate;
  pp.mean_load = kUtilization * total_speed / kArrivalRate;
  in.workload = dls::online::poisson_workload(pp, kClusters, rng);
  // The seed shapes the stream, not its size: arrival times are scaled
  // so the last one lands at count / rate, and loads so the offered
  // work is exactly kUtilization of the platform's speed over that
  // horizon. Otherwise the mean active-load count, which sets the LP's
  // size, would swing with the seed by more than the host noise.
  auto& arrivals = in.workload.arrivals;
  const double horizon = pp.count / kArrivalRate;
  const double stretch = horizon / arrivals.back().time;
  double offered = 0.0;
  for (const auto& a : arrivals) offered += a.load;
  const double scale = kUtilization * total_speed * horizon / offered;
  for (auto& a : arrivals) {
    a.time *= stretch;
    a.load *= scale;
  }

  // Capacity events: about one link or gateway bandwidth move per step,
  // forty steps over the stream. Each one re-prices the LP under the
  // warm capsule and takes the basis-repair path.
  dyn::DriftParams drift;
  drift.horizon = horizon;
  drift.step = horizon / 40.0;
  drift.gateways = true;
  drift.sample_fraction = 1.5 / (in.plat.num_links() + kClusters);
  // Topology events: kLinkFailures links that carry routes go down and
  // come back up, each outage a tenth of the stream, at fixed shares of
  // it. Each one reshapes the LP and forces a cold solve. A fixed count
  // keeps the cold-solve share, and with it the throughput, from
  // varying with the seed more than the workload itself does.
  dyn::EventTrace topo;
  dyn::DynamicPlatform probe(in.plat);
  for (int k = 0; k < kLinkFailures;) {
    const int link = static_cast<int>(
        rng.index(static_cast<std::size_t>(in.plat.num_links())));
    const double down = horizon * (k + 1) / (kLinkFailures + 1);
    const dyn::PlatformEvent fail{down, dyn::EventKind::LinkDown, link, 0.0};
    const dyn::PlatformEvent repair{down + horizon / 10.0, dyn::EventKind::LinkUp,
                                    link, 0.0};
    const bool reroutes = probe.apply(fail) == dyn::ChangeScope::Topology;
    (void)probe.apply(repair);
    if (!reroutes) continue;
    topo.events.push_back(fail);
    topo.events.push_back(repair);
    ++k;
  }
  std::sort(topo.events.begin(), topo.events.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });
  in.trace = dyn::EventTrace::merge(
      dyn::drift_trace(in.plat, drift, rng), topo);
  return in;
}

dls::online::OnlineOptions engine_options() {
  dls::online::OnlineOptions options;
  options.multi_load = true;
  options.multi.solve.objective = dls::core::MultiObjective::WeightedSum;
  return options;
}

/// Every report field that is not a wall time, as text with exact
/// doubles, so two reports compare bitwise.
std::string fingerprint(const dls::online::OnlineReport& r) {
  std::ostringstream os;
  os << std::hexfloat << r.arrivals << ' ' << r.completed << ' ' << r.aborted << ' '
     << r.rejected << ' ' << r.reschedules << ' ' << r.platform_events << ' '
     << r.warm_solves << ' ' << r.cold_solves << ' ' << r.repaired_solves << ' '
     << r.makespan << ' ' << r.total_work << ' ' << r.peak_active << ' '
     << r.metrics.response.mean() << ' ' << r.metrics.slowdown.mean() << ' '
     << r.metrics.utilization.mean() << ' ' << r.metrics.fairness.mean() << ' '
     << r.metrics.active_apps.mean() << '\n';
  for (const auto& a : r.apps)
    os << a.admit << ' ' << a.depart << ' ' << a.slowdown << ' '
       << static_cast<int>(a.outcome) << '\n';
  return os.str();
}

/// The reconstruction pass (see the header comment).
struct Recon {
  int reschedules = 0, warm = 0, cold = 0, repaired = 0;
  int timed_cold = 0;               ///< cold solves among the timed events
  double wall_s = 0.0;              ///< excluding the cold checks
  std::vector<double> event_ms;     ///< per timed event: apply + reschedule
  std::vector<double> apply_us;     ///< per platform event
  std::vector<double> cold_us;      ///< sampled cold core::solve_loads
  int checked = 0, mismatched = 0;  ///< sampled warm vs cold objectives
};

Recon reconstruct(const Inputs& in, const dls::online::OnlineReport& report,
                  SpanLog* spans, bool check) {
  // Engine events happen at arrival, completion and platform-event
  // times; equal times fold into one event, as in the engine loop.
  std::vector<double> times;
  for (const auto& a : report.apps) {
    times.push_back(a.arrival);
    if (a.outcome == dls::online::AppOutcome::Completed) times.push_back(a.depart);
  }
  for (const auto& e : in.trace.events) times.push_back(e.time);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  dyn::DynamicPlatform dp(in.plat);
  const dls::online::OnlineOptions options = engine_options();
  dls::online::MultiLoadRescheduler sched(dp.plat(), options.multi);
  dls::core::MultiLoadSolveOptions cold_options = options.multi.solve;

  Recon out;
  const std::size_t warmup =
      static_cast<std::size_t>(kWarmupShare * static_cast<double>(times.size()));
  std::size_t next_event = 0;
  std::vector<dls::online::ActiveLoad> loads, prev;
  double check_s = 0.0;
  const dls::WallTimer wall;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double t = times[i];
    const std::uint64_t t0 = dls::now_ns();
    const auto req = static_cast<std::int64_t>(i);
    const Scope event(spans, "replay.event", -1, req);
    dyn::ChangeScope scope = dyn::ChangeScope::None;
    while (next_event < in.trace.events.size() &&
           in.trace.events[next_event].time <= t) {
      const std::uint64_t a0 = dls::now_ns();
      {
        const Scope s(spans, "dynamics.apply", event.index(), req);
        scope = dyn::merge_scope(scope, dp.apply(in.trace.events[next_event++]));
      }
      out.apply_us.push_back(static_cast<double>(dls::now_ns() - a0) * 1e-3);
    }
    if (scope == dyn::ChangeScope::Capacity) sched.platform_capacity_changed();
    if (scope == dyn::ChangeScope::Topology) sched.platform_topology_changed();
    loads.clear();
    for (const auto& a : report.apps)
      if ((a.outcome == dls::online::AppOutcome::Completed ||
           a.outcome == dls::online::AppOutcome::AbortedChurn) &&
          a.admit <= t && t < a.depart)
        loads.push_back({a.id, a.cluster, a.payoff});
    const bool changed =
        loads.size() != prev.size() ||
        !std::equal(loads.begin(), loads.end(), prev.begin(),
                    [](const auto& x, const auto& y) { return x.id == y.id; });
    prev = loads;
    if (loads.empty() || (!changed && scope == dyn::ChangeScope::None)) continue;
    dls::online::MultiReschedule r;
    {
      const Scope s(spans, "online.reschedule", event.index(), req);
      r = sched.reschedule(loads);
    }
    const std::uint64_t t1 = dls::now_ns();
    ++out.reschedules;
    out.warm += r.warm;
    out.cold += !r.warm;
    out.repaired += r.repaired;
    if (i >= warmup) {
      out.event_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      out.timed_cold += !r.warm;
    }
    if (check && i >= warmup && out.reschedules % kColdCheckEvery == 0) {
      dls::core::LoadSet set;
      for (const auto& l : loads) {
        dls::core::LoadSpec spec;
        spec.source = l.cluster;
        spec.weight = l.weight;
        set.loads.push_back(std::move(spec));
      }
      const Scope s(spans, "core.solve_loads_cold", event.index(), req);
      const std::uint64_t c0 = dls::now_ns();
      const auto sol = dls::core::solve_loads(dp.plat(), set, cold_options);
      const std::uint64_t c1 = dls::now_ns();
      out.cold_us.push_back(static_cast<double>(c1 - c0) * 1e-3);
      check_s += static_cast<double>(c1 - c0) * 1e-9;
      ++out.checked;
      const double scale = std::max(1.0, std::abs(sol.objective));
      if (sol.status != dls::lp::SolveStatus::Optimal ||
          std::abs(sol.objective - r.objective) > 1e-9 * scale)
        ++out.mismatched;
    }
  }
  out.wall_s = wall.seconds() - check_s;
  return out;
}

}  // namespace

Result run_replay(const RunConfig& cfg) {
  Result res;
  std::vector<double> generate_ms, setup_s;
  // The first set-up builds the run's inputs; later ones, sampled
  // between passes, build copies that are dropped.
  Inputs in, spare;
  Inputs* target = &in;
  const auto set_up = [&] {
    const dls::WallTimer timer;
    dls::platform::Platform plat = make_platform();
    generate_ms.push_back(timer.seconds() * 1e3);
    *target = make_inputs(cfg, std::move(plat));
  };
  time_setup(1, set_up, setup_s);
  target = &spare;
  time_setup(kSetupRepeats - 1, set_up, setup_s);

  // Engine passes, each the same replay from scratch, alternate with
  // reconstruction passes, so both sample the whole run: a slow spell of
  // the host lasts seconds and then spares a later pass. The obs deltas
  // span the first engine pass only.
  const dls::online::OnlineEngine engine(in.plat, engine_options());
  const Exposition before = scrape_self();
  Exposition after;
  dls::online::OnlineReport report;
  std::string first_print;
  bool identical = true;
  double engine_wall = 0.0;
  std::vector<Recon> recons;
  std::vector<std::vector<double>> event_ms;
  std::vector<double> engine_walls;
  for (int pass = 0; pass < kPasses; ++pass) {
    if (pass > 0) time_setup(kSetupRepeats, set_up, setup_s);
    const dls::WallTimer timer;
    dls::online::OnlineReport r = engine.run(in.workload, in.trace);
    const double wall = timer.seconds();
    engine_walls.push_back(wall);
    engine_wall += wall;
    if (pass == 0) {
      after = scrape_self();
      first_print = fingerprint(r);
      report = std::move(r);
    } else {
      identical = identical && fingerprint(r) == first_print;
    }
    time_setup(kSetupRepeats, set_up, setup_s);
    recons.push_back(reconstruct(in, report, nullptr, pass == 0));
    event_ms.push_back(recons.back().event_ms);
  }
  spare = {};
  res.metrics["setup_s"] = median(setup_s);
  const double events = report.arrivals + report.completed + report.platform_events;
  res.metrics["throughput_per_s"] = events * kPasses / engine_wall;
  res.attempted = static_cast<std::uint64_t>(events);
  res.check("replay: completed + aborted + rejected == arrivals",
            report.completed + report.aborted + report.rejected == report.arrivals);
  res.check("replay: non-wall report fields identical across " +
                std::to_string(kPasses) + " replays",
            identical);

  const Recon& recon = recons.front();
  double recon_wall = recon.wall_s;
  for (const Recon& r : recons) recon_wall = std::min(recon_wall, r.wall_s);
  std::vector<double> pooled;
  for (const auto& pass : event_ms) pooled.insert(pooled.end(), pass.begin(), pass.end());
  const Summary lat = summarize(pooled);
  res.metrics["latency_p50_ms"] = lat.p50;
  res.metrics["peak_rss_mb"] = self_peak_rss_mb();
  res.check("replay: reconstruction reproduces the engine's solve counts",
            recon.reschedules == report.reschedules &&
                recon.warm == report.warm_solves && recon.cold == report.cold_solves &&
                recon.repaired == report.repaired_solves);
  res.check("replay: sampled warm objectives equal cold core::solve_loads (1e-9 rel)",
            recon.checked > 0 && recon.mismatched == 0);
  res.failed = static_cast<std::uint64_t>(recon.mismatched);

  std::ostringstream os;
  os << "replay-k128: " << report.arrivals << " arrivals, " << report.platform_events
     << " platform events, " << report.reschedules << " reschedules ("
     << report.warm_solves << " warm, " << report.repaired_solves << " repaired, "
     << report.cold_solves
     << " cold), utilization " << report.metrics.utilization.mean() << ", mean active "
     << report.metrics.active_apps.mean() << "; " << kPasses
     << " engine passes of";
  for (const double w : engine_walls) os << " " << w;
  os << " s";
  res.note(os.str());
  os.str("");
  os << "replay-k128: event latency over " << kPasses << " passes: p50 "
     << lat.p50 << " ms, p75 " << lat.p75 << " ms, p90 " << lat.p90 << " ms, p"
     << lat.tail_pct << " " << lat.tail << " ms over n=" << lat.n << ", "
     << recon.timed_cold << " cold solves per pass (first " << kWarmupShare * 100
     << "% of events untimed); " << recon.checked << " cold checks, "
     << recon.mismatched << " mismatched; per-pass p50";
  for (const auto& pass : event_ms) os << " " << median(pass);
  os << " ms";
  res.note(os.str());

  if (!cfg.trace) return res;

  SpanLog spans;
  const Recon traced = reconstruct(in, report, &spans, false);
  spans.write_chrome(cfg.workdir + "/trace-replay-k128.json");
  const auto resched = summarize(spans.durations_us("online.reschedule"));
  res.metrics["online.resched_us_p50"] = resched.p50;
  res.metrics["online.resched_us_tail"] = resched.tail;
  res.metrics["online.warm_frac"] =
      static_cast<double>(report.warm_solves) / report.reschedules;
  res.metrics["online.repaired_frac"] =
      static_cast<double>(report.repaired_solves) / report.reschedules;
  res.metrics["online.slot_grows"] =
      delta(before, after, "dls_resched_slot_grow_total");
  res.metrics["core.solve_loads_cold_us"] = median(recon.cold_us);
  res.metrics["dynamics.apply_us"] = median(recon.apply_us);
  res.metrics["dynamics.routes_changed"] =
      delta(before, after, "dls_platform_routes_changed_total");
  res.metrics["platform.generate_ms"] = median(generate_ms);
  res.metrics["trace.overhead_ratio"] = traced.wall_s / recon_wall;
  add_lp_metrics(res, before, after);
  add_render_metrics(res);
  for (const auto& [name, ms] : spans.self_ms())
    res.note("self time " + name + ": " + dls::obs::format_double(ms) + " ms");
  return res;
}

}  // namespace perfbench
