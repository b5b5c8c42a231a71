#include "serve/daemon.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/http.hpp"
#include "support/error.hpp"
#include "support/event_loop.hpp"
#include "support/timer.hpp"

namespace dls::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Longest poll round: how often an idle daemon checks for a drain.
constexpr int kIdlePollMs = 200;

struct DaemonObs {
  obs::Counter req_metrics, req_health, req_stats, req_mutate, req_other;
  obs::Histogram loop_lag;
  obs::Gauge draining;
  DaemonObs() {
    auto& reg = obs::registry();
    const std::string req = "dls_serve_requests_total";
    const std::string req_help = "Requests served, by endpoint";
    req_metrics = reg.counter(req, req_help, "endpoint=\"metrics\"");
    req_health = reg.counter(req, req_help, "endpoint=\"health\"");
    req_stats = reg.counter(req, req_help, "endpoint=\"stats\"");
    req_mutate = reg.counter(req, req_help, "endpoint=\"mutate\"");
    req_other = reg.counter(req, req_help, "endpoint=\"other\"");
    loop_lag = reg.histogram("dls_serve_event_loop_lag_seconds",
                             "Poll wakeups behind their deadline",
                             obs::default_time_buckets());
    draining = reg.gauge("dls_serve_draining",
                         "1 while the daemon drains toward shutdown");
  }
};

DaemonObs& daemon_obs() {
  static DaemonObs handles;
  return handles;
}

std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string word;
  while (is >> word) out.push_back(std::move(word));
  return out;
}

bool parse_double_arg(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0' && std::isfinite(out);
}

bool parse_int_arg(const std::string& s, int& out) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  out = static_cast<int>(v);
  return out == v;
}

}  // namespace

// The daemon proper: owns the engine and the replay cursor; run()
// drives them and an EventLoop. run_daemon() constructs one.
class Daemon {
public:
  Daemon(platform::Platform plat, const DaemonOptions& options)
      : options_(options),
        engine_(std::move(plat), options.engine),
        replay_(engine_, options_.replay, options_.events) {}

  DaemonReport run();

private:
  // ---- virtual-time plumbing ------------------------------------------------

  [[nodiscard]] double wall_elapsed() const {
    return static_cast<double>(now_ns() - start_ns_) * 1e-9;
  }
  /// The virtual time the wall clock has paid for. Infinite at
  /// unlimited speed: every queued replay item is immediately due.
  [[nodiscard]] double vt_budget() const {
    return options_.replay_speed > 0.0 ? wall_elapsed() * options_.replay_speed : kInf;
  }
  /// Timestamp for an external mutation: wherever the replay pace has
  /// gotten to, never behind the engine.
  [[nodiscard]] double vt_now() const {
    const double paced = options_.replay_speed > 0.0 ? wall_elapsed() * options_.replay_speed
                                              : engine_.now();
    return std::max(engine_.now(), paced);
  }

  /// Replays everything due under the wall budget, one virtual time
  /// per cursor step. Bounded per call so sockets stay responsive at
  /// unlimited speed.
  void pump_replay() {
    const double budget = vt_budget();
    int steps = 0;
    while (steps < 512 && replay_.step(budget)) ++steps;
  }

  void begin_drain(const std::string& why) {
    if (engine_.draining()) return;
    engine_.begin_drain();
    drain_started_ns_ = now_ns();
    daemon_obs().draining.set(1.0);
    obs::trace("serve.drain", why);
    say("draining (" + why + ")");
    // A drain abandons the replay pace: skip unfed arrivals/events and
    // fast-forward the remaining fluid schedule so shutdown is prompt
    // at any --replay-speed.
    replay_.skip_rest();
    for (double t = engine_.next_completion(); std::isfinite(t);
         t = engine_.next_completion())
      engine_.advance_to(t);
  }

  // ---- responses ------------------------------------------------------------

  [[nodiscard]] std::string health_json() const {
    return std::string("{\"status\":\"") +
           (engine_.draining() ? "draining" : "ok") +
           "\",\"vt\":" + obs::format_double(engine_.now()) +
           ",\"active\":" + std::to_string(engine_.active_count()) + "}";
  }

  [[nodiscard]] std::string stats_json() const {
    const EngineCounters& c = engine_.counters();
    const online::OnlineMetrics& m = engine_.metrics();
    std::string out = "{";
    out += "\"vt\":" + obs::format_double(engine_.now());
    out += ",\"active\":" + std::to_string(engine_.active_count());
    out += ",\"peak_active\":" + std::to_string(c.peak_active);
    out += ",\"arrivals\":" + std::to_string(c.arrivals);
    out += ",\"admitted\":" + std::to_string(c.admitted);
    out += ",\"rejected_overload\":" + std::to_string(c.rejected_overload);
    out += ",\"rejected_absent\":" + std::to_string(c.rejected_absent);
    out += ",\"rejected_draining\":" + std::to_string(c.rejected_draining);
    out += ",\"completed\":" + std::to_string(c.completed);
    out += ",\"cancelled\":" + std::to_string(c.cancelled);
    out += ",\"aborted_churn\":" + std::to_string(c.aborted_churn);
    out += ",\"reschedules\":" + std::to_string(c.reschedules);
    out += ",\"warm_solves\":" + std::to_string(c.warm_solves);
    out += ",\"cold_solves\":" + std::to_string(c.cold_solves);
    out += ",\"repaired_solves\":" + std::to_string(c.repaired_solves);
    out += ",\"platform_events\":" + std::to_string(c.platform_events);
    out += ",\"replay_pending\":" + std::to_string(replay_.pending());
    out += ",\"response_mean\":" + obs::format_double(m.response.mean());
    out += ",\"slowdown_mean\":" + obs::format_double(m.slowdown.mean());
    out += ",\"utilization_mean\":" + obs::format_double(m.utilization.mean());
    out += ",\"fairness_mean\":" + obs::format_double(m.fairness.mean());
    out += ",\"draining\":";
    out += engine_.draining() ? "true" : "false";
    out += "}";
    return out;
  }

  /// Active-load inventory: one object per draining load with its
  /// identity, home cluster, age in virtual seconds, and current rate.
  [[nodiscard]] std::string loads_json() {
    std::string out = "{\"vt\":" + obs::format_double(engine_.now());
    out += ",\"loads\":[";
    bool first = true;
    for (const int id : engine_.active_ids()) {
      const online::AppRecord& rec =
          engine_.apps()[static_cast<std::size_t>(id)];
      if (!first) out += ",";
      first = false;
      out += "{\"id\":" + std::to_string(id);
      const std::string& name = engine_.app_name(id);
      if (!name.empty()) out += ",\"name\":\"" + obs::json_escape(name) + "\"";
      out += ",\"cluster\":" + std::to_string(rec.cluster);
      out += ",\"payoff\":" + obs::format_double(rec.payoff);
      out += ",\"age\":" + obs::format_double(engine_.now() - rec.arrival);
      out += ",\"remaining\":" + obs::format_double(engine_.load_remaining(id));
      out += ",\"rate\":" + obs::format_double(engine_.load_rate(id));
      out += "}";
    }
    out += "]}";
    return out;
  }

  /// Executes one mutation/query in line-protocol form; both protocols
  /// funnel here so HTTP POST and line commands behave identically.
  [[nodiscard]] std::string run_command(const std::vector<std::string>& words,
                                        bool& close_conn) {
    if (words.empty()) return "err empty command";
    const std::string& cmd = words[0];
    if (cmd == "ping") return "ok pong";
    if (cmd == "health") {
      daemon_obs().req_health.inc();
      return std::string("ok ") + (engine_.draining() ? "draining" : "ok");
    }
    if (cmd == "stats") {
      daemon_obs().req_stats.inc();
      return "ok " + stats_json();
    }
    if (cmd == "loads") {
      daemon_obs().req_stats.inc();
      return "ok " + loads_json();
    }
    if (cmd == "quit") {
      close_conn = true;
      return "ok bye";
    }
    if (cmd == "shutdown") {
      daemon_obs().req_mutate.inc();
      begin_drain("client shutdown request");
      return "ok draining";
    }
    if (cmd == "arrive") {
      daemon_obs().req_mutate.inc();
      if (words.size() < 4 || words.size() > 5)
        return "err usage: arrive <cluster> <payoff> <load> [name]";
      int cluster = 0;
      double payoff = 0.0, load = 0.0;
      if (!parse_int_arg(words[1], cluster) ||
          !parse_double_arg(words[2], payoff) ||
          !parse_double_arg(words[3], load))
        return "err arrive: malformed arguments";
      try {
        const ServeEngine::ArriveResult r = engine_.arrive(
            vt_now(), cluster, payoff, load, words.size() == 5 ? words[4] : "");
        engine_.settle();
        std::string reply = std::string("ok ") + to_string(r.admit);
        if (r.admit == Admit::Admitted) reply += " id=" + std::to_string(r.id);
        return reply;
      } catch (const Error& e) {
        return std::string("err serve: ") + e.what();
      }
    }
    if (cmd == "depart") {
      daemon_obs().req_mutate.inc();
      int id = 0;
      if (words.size() != 2 || !parse_int_arg(words[1], id))
        return "err usage: depart <id>";
      const bool cancelled = engine_.depart(vt_now(), id);
      engine_.settle();
      return cancelled ? "ok cancelled" : "err not active";
    }
    if (cmd == "event") {
      daemon_obs().req_mutate.inc();
      if (words.size() < 3 || words.size() > 4)
        return "err usage: event <kind> <target> [value]";
      dynamics::PlatformEvent ev;
      if (!dynamics::from_string(words[1], ev.kind)) {
        std::string reply = "err unknown event kind; one of:";
        for (const dynamics::EventKind kind : dynamics::kEventKinds)
          reply += std::string(" ") + dynamics::to_string(kind);
        return reply;
      }
      if (!parse_int_arg(words[2], ev.target)) return "err malformed target";
      if (dynamics::has_value(ev.kind) &&
          (words.size() != 4 || !parse_double_arg(words[3], ev.value)))
        return "err event kind needs a value";
      ev.time = vt_now();
      try {
        const dynamics::ChangeScope scope = engine_.apply_event(ev.time, ev);
        engine_.settle();
        return std::string("ok ") + dynamics::to_string(scope);
      } catch (const Error& e) {
        return std::string("err ") + e.what();
      }
    }
    daemon_obs().req_other.inc();
    return "err unknown command '" + cmd + "'";
  }

  [[nodiscard]] std::string handle_http(const Request& req) {
    std::map<std::string, std::string> query;
    const std::string path = split_target(req.target, query);
    const bool head = req.method == "HEAD";
    const auto respond = [&](int status, const std::string& reason,
                             const std::string& type, const std::string& body) {
      return http_response(status, reason, type, head ? "" : body);
    };

    if (path == "/metrics") {
      daemon_obs().req_metrics.inc();
      return respond(200, "OK", "text/plain; version=0.0.4",
                     obs::to_prometheus(obs::registry().snapshot()));
    }
    if (path == "/health") {
      daemon_obs().req_health.inc();
      return respond(200, "OK", "application/json", health_json() + "\n");
    }
    if (path == "/stats") {
      daemon_obs().req_stats.inc();
      return respond(200, "OK", "application/json", stats_json() + "\n");
    }
    if (path == "/loads") {
      daemon_obs().req_stats.inc();
      return respond(200, "OK", "application/json", loads_json() + "\n");
    }
    if (req.method == "POST" &&
        (path == "/arrive" || path == "/depart" || path == "/event" ||
         path == "/shutdown")) {
      // Re-shape the query into the line command and share its logic.
      std::vector<std::string> words;
      words.push_back(path.substr(1));
      if (path == "/arrive") {
        words.push_back(query.count("cluster") ? query["cluster"] : "");
        words.push_back(query.count("payoff") ? query["payoff"] : "1");
        words.push_back(query.count("load") ? query["load"] : "");
        if (query.count("name")) words.push_back(query["name"]);
      } else if (path == "/depart") {
        words.push_back(query.count("id") ? query["id"] : "");
      } else if (path == "/event") {
        words.push_back(query.count("kind") ? query["kind"] : "");
        words.push_back(query.count("target") ? query["target"] : "");
        if (query.count("value")) words.push_back(query["value"]);
      }
      bool close_ignored = false;
      const std::string result = run_command(words, close_ignored);
      const bool ok = result.rfind("ok", 0) == 0;
      return respond(ok ? 200 : 400, ok ? "OK" : "Bad Request",
                     "text/plain", result + "\n");
    }
    daemon_obs().req_other.inc();
    return respond(404, "Not Found", "text/plain",
                   "unknown endpoint " + path + "\n");
  }

  /// Parses and serves everything complete in the connection's buffer.
  /// False when the connection must close.
  bool service(EventLoop::Conn& conn, DaemonReport& report) {
    for (;;) {
      const Request req = parse_request(conn.in);
      if (req.kind == Request::Kind::Incomplete) return true;
      if (req.kind == Request::Kind::Error) {
        ++report.bad_requests;
        daemon_obs().req_other.inc();
        (void)send_all(conn.sock, req.error.data(), req.error.size());
        return false;
      }
      conn.in.erase(0, req.consumed);
      ++report.requests;
      if (req.kind == Request::Kind::Http) {
        const std::string response = handle_http(req);
        // HTTP responses close the connection (Connection: close) —
        // curl- and /dev/tcp-friendly. Line connections stay open.
        (void)send_all(conn.sock, response.data(), response.size());
        return false;
      }
      if (req.line.empty()) continue;  // bare newline keepalive
      bool close_conn = false;
      const std::string reply = run_command(split_words(req.line), close_conn) +
                                "\n";
      if (!send_all(conn.sock, reply.data(), reply.size())) return false;
      if (close_conn) return false;
    }
  }

  void say(const std::string& line) const {
    if (options_.log) options_.log(line);
  }

  DaemonOptions options_;
  ServeEngine engine_;
  online::ReplayCursor replay_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t drain_started_ns_ = 0;
};

DaemonReport Daemon::run() {
  require(options_.replay_speed >= 0.0, "serve: --replay-speed cannot be negative");
  options_.replay.validate(engine_.plat().num_clusters());
  options_.events.validate(engine_.plat());
  if (!options_.trace_file.empty()) obs::trace_ring().set_sink(options_.trace_file);
  daemon_obs().draining.set(0.0);

  EventLoop loop(options_.port, options_.port_file);
  DaemonReport report;
  report.port = loop.port();
  say("listening on port " + std::to_string(report.port) + " (" +
      std::to_string(options_.replay.arrivals.size()) + " replay arrivals, " +
      std::to_string(options_.events.events.size()) + " replay events, replay speed " +
      (options_.replay_speed > 0.0 ? obs::format_double(options_.replay_speed) : "max") +
      ")");
  obs::trace("serve.start", "port=" + std::to_string(report.port));

  start_ns_ = now_ns();
  std::string exit_reason;

  while (true) {
    if (options_.stop_requested && options_.stop_requested())
      begin_drain("stop requested");

    pump_replay();

    if (engine_.draining()) {
      const double held =
          static_cast<double>(now_ns() - drain_started_ns_) * 1e-9;
      if (engine_.active_count() == 0 && held >= options_.drain_grace) {
        if (exit_reason.empty()) exit_reason = "drained";
        break;
      }
    } else if (options_.exit_after_replay && replay_.pending() == 0 &&
               engine_.active_count() == 0) {
      begin_drain("replay complete");
      exit_reason = "replay-complete";
      const double held =
          static_cast<double>(now_ns() - drain_started_ns_) * 1e-9;
      if (held >= options_.drain_grace) break;
    }

    // Sleep until the next replay item is due (wall time), the idle
    // tick, or socket activity — whichever first.
    int timeout_ms = kIdlePollMs;
    const double due = replay_.next_time();
    if (std::isfinite(due)) {
      if (options_.replay_speed > 0.0) {
        const double wall_due = due / options_.replay_speed - wall_elapsed();
        timeout_ms = std::clamp(static_cast<int>(wall_due * 1e3), 0,
                                kIdlePollMs);
      } else {
        timeout_ms = 0;  // unlimited speed: keep pumping
      }
    }

    const std::uint64_t deadline_ns =
        now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
    if (!loop.poll(timeout_ms)) {
      // Timer-driven wakeup: how late past the deadline did we wake?
      const std::uint64_t woke = now_ns();
      if (woke > deadline_ns)
        daemon_obs().loop_lag.observe(static_cast<double>(woke - deadline_ns) *
                                      1e-9);
    }

    for (const int fd : loop.ready()) {
      EventLoop::Conn& conn = loop.conn(fd);
      if (conn.eof) continue;  // the peer left: its last bytes go unserved
      bool open = false;
      try {
        open = service(conn, report);
      } catch (const Error&) {
        // A send that failed hard: drop the connection, keep serving.
      }
      if (!open) loop.close(fd);
    }
  }

  report.counters = engine_.counters();
  report.exit_reason = exit_reason;
  say("exit (" + exit_reason + "): " +
      std::to_string(report.counters.completed) + " completed, " +
      std::to_string(report.counters.cancelled) + " cancelled, " +
      std::to_string(report.counters.aborted_churn) + " aborted, " +
      std::to_string(report.requests) + " request(s) served");
  obs::trace("serve.stop", exit_reason);
  if (!options_.trace_file.empty()) obs::trace_ring().set_sink("");
  daemon_obs().draining.set(0.0);
  return report;
}

DaemonReport run_daemon(platform::Platform plat, const DaemonOptions& options) {
  Daemon daemon(std::move(plat), options);
  return daemon.run();
}

}  // namespace dls::serve
