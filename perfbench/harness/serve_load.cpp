// serve-k16: a real `dls serve` child process on loopback under an
// open-loop and a closed-loop phase.
//
// Why this workload: at K=16 a warm LP patch costs only ~0.2 ms, so the
// serve layer (parse, poll loop, socket I/O, /metrics render) is a large
// share of each ack, and the scrapes are the read path running beside
// the arrive writes.
//
//   open loop    Poisson `arrive` commands at 400/s on one line-protocol
//                connection, sent at their due times whatever the
//                replies do; ~10% of admitted loads are cancelled with
//                `depart`. GET /metrics and GET /loads run at 8/s on
//                their own connections. Latency counts from the due time.
//   closed loop  one connection, at most 4 requests in flight, sending
//                depart/arrive pairs that hold 16 long loads active, one
//                on each cluster.
//
// Each phase gets a fresh daemon; 30 more starts only time set-up. The
// closed loop runs in sixteen segments: before the open loop, in
// fourteen pauses of its sends, and after it. Its rate is the lower
// quartile of its window rates: the host alternates between a slower
// and a faster state for seconds at a time, and the slower state's
// level moves less between runs.
// Daemon-side counters come from /metrics and /stats scraped before and
// after each phase. The platform goes to the daemon as a file: the CLI
// reads --speed both as the generator's cluster speed and as the replay
// pace, so generator flags on `dls serve` are avoided.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>

#include "obs/export.hpp"
#include "platform/generator.hpp"
#include "platform/serialization.hpp"
#include "promtext.hpp"
#include "serve.hpp"
#include "support/error.hpp"
#include "support/socket.hpp"
#include "support/timer.hpp"

extern char** environ;

namespace perfbench::serve {

namespace {

constexpr double kArrivalRate = 400.0;
constexpr double kMeanLoad = 2.0;          // units; ~0.5 of 16 x speed 100
constexpr double kCancelShare = 0.1;
// A cancelled load is 50 units: one load drains at most a few hundred
// units per second (its cluster's speed plus gateway bandwidth), so it
// is still active when its depart comes 2 ms + Exp(8 ms) later.
constexpr double kCancelledLoad = 50.0;
constexpr double kCancelMinS = 0.002, kCancelMeanS = 0.008;
constexpr double kScrapeRate = 8.0;        // scrapes per second
constexpr int kClosedInFlight = 4;
constexpr int kClosedActive = kClusters;  // one load per cluster
constexpr double kClosedLoad = 1e9;        // never drains during the phase
constexpr std::uint64_t kClosedPayoffSeed = 16;
constexpr double kWindowS = 0.25;          // closed-loop rate windows
constexpr double kReplyTimeoutS = 10.0;
constexpr int kOpenPauses = 14;            // closed-loop segments = pauses + 2
constexpr int kSetupRoundStarts = 2;       // one round before, one per pause
constexpr int kSetupOnlyStarts = kSetupRoundStarts * (kOpenPauses + 1);
constexpr const char* kClosed = "daemon closed the line connection";

/// Evenly spaced shares of the open loop's measured part at which it
/// pauses for a closed-loop segment.
std::vector<double> pause_shares() {
  std::vector<double> out;
  for (int k = 1; k <= kOpenPauses; ++k) out.push_back(k / (kOpenPauses + 1.0));
  return out;
}

std::uint64_t ns_after(std::uint64_t t0, double seconds) {
  return t0 + static_cast<std::uint64_t>(seconds * 1e9);
}

// ---- the daemon child ------------------------------------------------------

/// A `dls serve` child. The constructor returns once the port file is
/// written; the destructor stops the child (SIGTERM, then SIGKILL after
/// five seconds) and waits for it.
class Daemon {
public:
  Daemon(const RunConfig& cfg, const std::string& platform_file, int index) {
    const std::string port_file = cfg.workdir + "/port-" + std::to_string(index);
    const std::string log_file =
        cfg.workdir + "/daemon-" + std::to_string(index) + ".log";
    ::unlink(port_file.c_str());
    std::vector<std::string> args = {cfg.dls,        "serve",
                                     "--platform",   platform_file,
                                     "--objective",  "sum",
                                     "--max-loads",  std::to_string(kMaxLoads),
                                     "--port-file",  port_file};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_file.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const std::uint64_t t0 = dls::now_ns();
    const int rc = posix_spawn(&pid_, cfg.dls.c_str(), &actions, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    dls::require(rc == 0, "cannot start " + cfg.dls);
    // The daemon writes "<port>\n"; a file without its newline is
    // still being written.
    const std::uint64_t deadline = ns_after(t0, 20.0);
    for (;;) {
      std::ifstream in(port_file);
      std::string text((std::istreambuf_iterator<char>(in)), {});
      if (!text.empty() && text.back() == '\n') {
        port_ = static_cast<std::uint16_t>(std::stoi(text));
        break;
      }
      int status = 0;
      dls::require(::waitpid(pid_, &status, WNOHANG) == 0,
                   "dls serve exited before writing its port file; see " + log_file);
      dls::require(dls::now_ns() < deadline, "dls serve never wrote " + port_file);
      const timespec pause{0, 200'000};
      ::nanosleep(&pause, nullptr);
    }
    setup_s_ = static_cast<double>(dls::now_ns() - t0) * 1e-9;
  }
  ~Daemon() { (void)stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] double setup_s() const { return setup_s_; }

  /// Peak resident set (VmHWM) of the running child, in MiB.
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line))
      if (line.rfind("VmHWM:", 0) == 0)
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    return 0.0;
  }

  /// Stops the child and returns true when it exited with status 0.
  bool stop() {
    if (pid_ <= 0) return exited_ok_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const std::uint64_t deadline = ns_after(dls::now_ns(), 5.0);
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (dls::now_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      const timespec pause{0, 1'000'000};
      ::nanosleep(&pause, nullptr);
    }
    pid_ = -1;
    exited_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return exited_ok_;
  }

private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  double setup_s_ = 0.0;
  bool exited_ok_ = false;
};

// ---- small clients ---------------------------------------------------------

/// One HTTP GET on its own connection (the daemon closes after each
/// response). Returns the body; `ok` is false on any transport error.
std::string http_get(std::uint16_t port, const std::string& path, bool& ok) {
  ok = false;
  try {
    const dls::Socket sock = dls::tcp_connect("127.0.0.1", port);
    const std::string req = "GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n";
    if (!dls::send_all(sock, req.data(), req.size())) return {};
    std::string resp;
    char buf[65536];
    for (long got; (got = dls::recv_some(sock, buf, sizeof buf)) > 0;)
      resp.append(buf, static_cast<std::size_t>(got));
    const std::size_t body = resp.find("\r\n\r\n");
    ok = resp.rfind("HTTP/1.1 200", 0) == 0 && body != std::string::npos;
    return ok ? resp.substr(body + 4) : std::string();
  } catch (const dls::Error&) {
    return {};
  }
}

double json_number(const std::string& body, const std::string& key) {
  const std::size_t at = body.find("\"" + key + "\":");
  if (at == std::string::npos) return std::nan("");
  return std::strtod(body.c_str() + at + key.size() + 3, nullptr);
}

/// Daemon-side state at one instant: /stats plus /metrics.
struct DaemonState {
  std::string stats;
  Exposition metrics;
  bool ok = false;
  [[nodiscard]] double stat(const std::string& key) const {
    return json_number(stats, key);
  }
};

DaemonState scrape_state(std::uint16_t port) {
  DaemonState s;
  bool ok_stats = false, ok_metrics = false;
  s.stats = http_get(port, "/stats", ok_stats);
  s.metrics = parse_exposition(http_get(port, "/metrics", ok_metrics));
  s.ok = ok_stats && ok_metrics;
  return s;
}

/// Waits (polling /stats) until no load is active, then scrapes.
DaemonState settle(std::uint16_t port) {
  const std::uint64_t deadline = ns_after(dls::now_ns(), kReplyTimeoutS);
  for (;;) {
    bool ok = false;
    const std::string stats = http_get(port, "/stats", ok);
    if ((ok && json_number(stats, "active") == 0.0) || dls::now_ns() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return scrape_state(port);
}

/// The lifecycle identities every phase must end with, daemon-side.
void check_ledger(Result& res, const std::string& phase, const DaemonState& end,
                  double sent_arrivals) {
  const auto s = [&](const char* key) { return end.stat(key); };
  const double rejected =
      s("rejected_overload") + s("rejected_absent") + s("rejected_draining");
  res.check(phase + ": final /stats and /metrics scrapes answered", end.ok);
  res.check(phase + ": admitted + rejected == arrivals == arrivals sent",
            s("admitted") + rejected == s("arrivals") &&
                s("arrivals") == sent_arrivals);
  res.check(phase + ": completed + cancelled + aborted + active == admitted",
            s("completed") + s("cancelled") + s("aborted_churn") + s("active") ==
                s("admitted"));
  const auto m = [&](const char* family, const char* label) {
    return end.metrics.sum(family, label);
  };
  res.check(phase + ": /metrics totals equal /stats",
            m("dls_serve_arrivals_total", "outcome=\"admitted\"") == s("admitted") &&
                m("dls_serve_arrivals_total", "rejected") == rejected &&
                m("dls_serve_departures_total", "reason=\"completed\"") ==
                    s("completed") &&
                m("dls_serve_departures_total", "reason=\"cancelled\"") ==
                    s("cancelled"));
}

/// A non-blocking line-protocol connection: commands in, complete reply
/// lines out.
class LineConn {
public:
  explicit LineConn(std::uint16_t port) : sock_(dls::tcp_connect("127.0.0.1", port)) {
    dls::set_nonblocking(sock_, true);
  }
  bool send(const std::string& line) {
    return dls::send_all(sock_, line.data(), line.size());
  }
  /// Waits until `deadline_ns` at most for readable bytes and appends
  /// the complete lines to `out`. False when the daemon closed the
  /// connection.
  bool receive(std::uint64_t deadline_ns, std::vector<std::string>& out) {
    pollfd pfd{sock_.fd(), POLLIN, 0};
    const std::uint64_t now = dls::now_ns();
    const std::uint64_t wait = deadline_ns > now ? deadline_ns - now : 0;
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(&pfd, 1, &ts, nullptr) <= 0) return true;
    char buf[65536];
    for (;;) {
      const long got = dls::recv_some(sock_, buf, sizeof buf);
      if (got == 0) return false;
      if (got < 0) break;
      in_.append(buf, static_cast<std::size_t>(got));
    }
    for (std::size_t nl; (nl = in_.find('\n')) != std::string::npos;) {
      out.push_back(in_.substr(0, nl));
      in_.erase(0, nl + 1);
    }
    return true;
  }

private:
  dls::Socket sock_;
  std::string in_;
};

/// Parses "ok admitted id=N"; -1 for any other reply.
int admitted_id(const std::string& reply) {
  const std::string prefix = "ok admitted id=";
  return reply.rfind(prefix, 0) == 0 ? std::atoi(reply.c_str() + prefix.size()) : -1;
}

// ---- open loop -------------------------------------------------------------

struct OpenResult {
  std::vector<double> ack_ms;      ///< measured arrivals, from the due time
  std::vector<double> late_ms;     ///< measured sends, due to sent
  std::vector<double> scrape_ms;   ///< GET /metrics round trips
  std::vector<std::string> lines;  ///< every command sent, in order
  std::uint64_t attempted = 0, failed = 0;
  double sent_arrivals = 0;
  bool in_order = true;
  std::size_t metrics_bytes = 0;
  DaemonState before;              ///< scraped when the measured interval starts
};

/// Stream positions, one per share in `shares` (in (0, 1) of the
/// measured part), at which the open loop can pause: the first request
/// due at or after that point such that no cancelled load's depart
/// comes after it while its arrival comes before. A 50-unit load would
/// drain during a pause and its depart would fail.
std::vector<std::size_t> pause_points(const std::vector<Request>& stream,
                                      double warm_s, const std::vector<double>& shares) {
  std::vector<char> cancelled;
  for (const Request& r : stream) {
    if (static_cast<std::size_t>(r.arrival) >= cancelled.size())
      cancelled.resize(static_cast<std::size_t>(r.arrival) + 1, 0);
    if (r.depart) cancelled[static_cast<std::size_t>(r.arrival)] = 1;
  }
  std::vector<std::size_t> out;
  const double end = stream.back().due_s;
  int open_pairs = 0;
  std::size_t share = 0;
  for (std::size_t i = 0; i < stream.size() && share < shares.size(); ++i) {
    if (open_pairs == 0 &&
        stream[i].due_s >= warm_s + shares[share] * (end - warm_s)) {
      out.push_back(i);
      ++share;
    }
    const Request& r = stream[i];
    if (r.depart) --open_pairs;
    else if (cancelled[static_cast<std::size_t>(r.arrival)]) ++open_pairs;
  }
  return out;
}

/// Sends the stream at its due times. Before each position in `pauses`
/// it stops, waits for every reply, calls `pause(k)` and resumes with
/// every later due time shifted by the pause's length.
OpenResult open_loop(std::uint16_t port, const std::vector<Request>& stream,
                     double warm_s, SpanLog* spans,
                     const std::vector<std::size_t>& pauses,
                     const std::function<void(int)>& pause) {
  OpenResult out;
  std::vector<int> id_of(stream.size(), -2);  // per arrival: -2 unsent, -1 not admitted
  std::atomic<bool> stop{false};
  std::uint64_t scrape_attempts = 0, scrape_failures = 0;

  // Scraper: once the warm-up ends, the daemon's state for the deltas;
  // then GET /metrics three times out of four, GET /loads otherwise.
  const auto at = [](std::uint64_t ns) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns)));
  };
  std::thread scraper([&] {
    const std::uint64_t start = ns_after(dls::now_ns(), warm_s);
    at(start);
    out.before = scrape_state(port);
    for (int i = 0; !stop.load(); ++i) {
      at(ns_after(start, (i + 1) / kScrapeRate));
      if (stop.load()) break;
      const bool metrics = i % 4 != 3;
      bool ok = false;
      const std::uint64_t t0 = dls::now_ns();
      const std::string body = http_get(port, metrics ? "/metrics" : "/loads", ok);
      const std::uint64_t t1 = dls::now_ns();
      ++scrape_attempts;
      scrape_failures += !ok;
      if (!ok || !metrics) continue;
      out.scrape_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      out.metrics_bytes = body.size();
      if (spans) spans->add("obs.scrape", t0, t1, -1, -1, 1);
    }
  });

  struct InFlight {
    std::size_t index;  // into stream
    Timed t;
  };
  std::deque<InFlight> inflight;
  std::deque<std::size_t> deferred;  // departs due before their arrival's ack
  std::size_t next = 0;
  try {
    LineConn conn(port);

    std::uint64_t t0 = dls::now_ns();
    std::size_t paused = 0;
    const auto due_ns = [&](std::size_t i) { return ns_after(t0, stream[i].due_s); };
    // The next request that may be sent: none past a pending pause.
    const auto limit = [&] {
      return paused < pauses.size() ? pauses[paused] : stream.size();
    };
    const auto send = [&](std::size_t i, int id) {
      const std::string line = stream[i].line(id);
      InFlight f{i, {due_ns(i), dls::now_ns(), 0}};
      if (!conn.send(line)) throw dls::Error(kClosed);
      out.lines.push_back(line);
      ++out.attempted;
      if (stream[i].due_s >= warm_s) out.late_ms.push_back(f.t.late_ms());
      inflight.push_back(f);
    };

    int last_id = -1;
    std::vector<std::string> replies;
    const auto give_up = [&] {
      return ns_after(t0, stream.back().due_s + kReplyTimeoutS);
    };
    while ((next < stream.size() || !inflight.empty() || !deferred.empty()) &&
           dls::now_ns() < give_up()) {
      if (next == limit() && next < stream.size() && inflight.empty() &&
          deferred.empty()) {
        const std::uint64_t p0 = dls::now_ns();
        pause(static_cast<int>(paused++));
        t0 += dls::now_ns() - p0;
      }
      for (const std::uint64_t now = dls::now_ns();
           next < limit() && due_ns(next) <= now; ++next) {
        const Request& r = stream[next];
        if (!r.depart) {
          ++out.sent_arrivals;
          send(next, 0);
          continue;
        }
        const int id = id_of[static_cast<std::size_t>(r.arrival)];
        if (id >= 0) send(next, id);
        else if (id == -2) deferred.push_back(next);
        // id == -1: the load was not admitted, so there is nothing to cancel.
      }
      const std::uint64_t wake =
          next < limit() ? due_ns(next) : ns_after(dls::now_ns(), 0.05);
      replies.clear();
      if (!conn.receive(wake, replies)) break;
      for (const std::string& reply : replies) {
        if (inflight.empty()) {
          out.in_order = false;
          continue;
        }
        InFlight f = inflight.front();
        inflight.pop_front();
        f.t.done_ns = dls::now_ns();
        const Request& r = stream[f.index];
        if (r.depart) {
          out.in_order = out.in_order && reply.rfind("ok cancelled", 0) == 0;
          out.failed += reply != "ok cancelled";
          continue;
        }
        const int id = admitted_id(reply);
        out.in_order =
            out.in_order && (reply.rfind("ok ", 0) == 0 || reply.rfind("err", 0) == 0);
        if (id >= 0) {
          out.in_order = out.in_order && id > last_id;
          last_id = id;
        } else {
          ++out.failed;  // rejected or refused
        }
        id_of[static_cast<std::size_t>(r.arrival)] = id >= 0 ? id : -1;
        if (r.due_s >= warm_s) out.ack_ms.push_back(f.t.latency_ms());
        if (spans) {
          const int root =
              spans->add("loadgen.arrive", f.t.due_ns, f.t.done_ns, -1, r.arrival);
          spans->add("serve.round_trip", f.t.sent_ns, f.t.done_ns, root, r.arrival);
        }
      }
      for (auto it = deferred.begin(); it != deferred.end();) {
        const int id = id_of[static_cast<std::size_t>(stream[*it].arrival)];
        if (id == -2) {
          ++it;
          continue;
        }
        if (id >= 0) send(*it, id);
        it = deferred.erase(it);
      }
    }
  } catch (...) {
    stop.store(true);
    scraper.join();
    throw;
  }
  stop.store(true);
  scraper.join();
  const std::size_t unsent = deferred.size() + (stream.size() - next);
  out.failed += inflight.size() + unsent + scrape_failures;
  out.attempted += scrape_attempts + unsent;
  return out;
}

// ---- closed loop -----------------------------------------------------------

struct ClosedResult {
  double rps = 0.0;        ///< lower quartile of the untraced window rates
  double traced_rps = 0.0; ///< same, traced windows (trace mode only)
  Summary windows;         ///< untraced window rates
  std::vector<double> segment_rps;  ///< median window rate of each segment
  std::uint64_t attempted = 0, failed = 0;
  double sent_arrivals = 0;
  bool in_order = true;
};

/// Fills the active set and warms up, then hands `drive` a function
/// that runs one measured segment of `segment_s`. `drive` calls it
/// between the open loop's parts, so the rate samples the whole run:
/// the host's slow and fast spells last seconds.
ClosedResult closed_loop(
    std::uint16_t port, std::uint64_t seed, double warm_s, double segment_s,
    SpanLog* spans, const std::function<void(const std::function<void()>&)>& drive) {
  ClosedResult out;
  dls::Rng rng(seed ^ 0x5eedc105edULL);
  LineConn conn(port);
  // One load per cluster: each depart frees its load's cluster and the
  // arrive after it takes that cluster, with that cluster's payoff. No
  // cluster ever holds two loads, so the daemon's slot universe stays
  // at its first size, and every pair takes the LP away from and back
  // to the same optimum. With random clusters and payoffs the slot
  // universe and the LP's state drift as random walks, and the rate
  // with them, by up to half over a phase. The payoffs are fixed, not
  // seeded: they set the LP's work per pair, which moved the rate by
  // 40% between seeds. The seed orders the clusters.
  struct Load {
    int id;
    int cluster;
  };
  std::deque<Load> known;  // admitted loads, oldest first
  std::deque<int> free_clusters(static_cast<std::size_t>(kClusters));
  std::iota(free_clusters.begin(), free_clusters.end(), 0);
  std::shuffle(free_clusters.begin(), free_clusters.end(), rng);
  dls::Rng payoff_rng(kClosedPayoffSeed);
  std::vector<double> payoff(static_cast<std::size_t>(kClusters));
  for (double& p : payoff) p = payoff_rng.uniform(0.5, 1.5);
  struct InFlight {
    bool depart;
    std::uint64_t sent_ns;
    int cluster = -1;  ///< an arrive's cluster
  };
  std::deque<InFlight> inflight;
  bool next_depart = true;
  int last_id = -1;
  // Queues the next arrive, on the oldest free cluster.
  const auto send_arrive = [&] {
    const int cluster = free_clusters.front();
    free_clusters.pop_front();
    std::ostringstream os;
    os << "arrive " << cluster << " " << payoff[static_cast<std::size_t>(cluster)]
       << " " << kClosedLoad << "\n";
    inflight.push_back({false, dls::now_ns(), cluster});
    ++out.attempted;
    ++out.sent_arrivals;
    if (!conn.send(os.str())) throw dls::Error(kClosed);
  };
  // Queues a depart of the oldest admitted load.
  const auto send_depart = [&] {
    const Load load = known.front();
    known.pop_front();
    free_clusters.push_back(load.cluster);
    inflight.push_back({true, dls::now_ns()});
    ++out.attempted;
    if (!conn.send("depart " + std::to_string(load.id) + "\n"))
      throw dls::Error(kClosed);
  };
  const auto handle = [&](const std::string& reply, const InFlight& f) {
    if (f.depart) {
      out.failed += reply != "ok cancelled";
      out.in_order = out.in_order && reply.rfind("ok cancelled", 0) == 0;
      return;
    }
    const int id = admitted_id(reply);
    if (id < 0) {
      ++out.failed;
      return;
    }
    out.in_order = out.in_order && id > last_id;
    last_id = id;
    known.push_back({id, f.cluster});
  };
  // Runs pairs until `deadline`, returning the ack rate of each
  // kWindowS window; the result is a quantile over all windows, so a
  // burst of outside interference moves a few windows rather than the
  // result.
  const auto pump = [&](std::uint64_t deadline, bool traced) {
    const std::uint64_t start = dls::now_ns();
    const double span_s = static_cast<double>(deadline - start) * 1e-9;
    std::vector<double> per_window(
        static_cast<std::size_t>(std::max(1L, std::lround(span_s / kWindowS))), 0.0);
    std::vector<std::string> replies;
    while (dls::now_ns() < deadline) {
      while (inflight.size() < static_cast<std::size_t>(kClosedInFlight) &&
             !(next_depart && known.empty())) {
        if (next_depart) send_depart();
        else send_arrive();
        next_depart = !next_depart;
      }
      replies.clear();
      if (!conn.receive(deadline, replies)) throw dls::Error(kClosed);
      for (const std::string& reply : replies) {
        if (inflight.empty()) {
          out.in_order = false;
          continue;
        }
        const InFlight f = inflight.front();
        inflight.pop_front();
        handle(reply, f);
        const std::uint64_t now = dls::now_ns();
        // Acks after the last whole window are not counted.
        const auto window = static_cast<std::size_t>(
            static_cast<double>(now - start) * 1e-9 / kWindowS);
        if (window < per_window.size()) per_window[window] += 1.0 / kWindowS;
        if (traced && spans)
          spans->add(f.depart ? "loadgen.depart" : "loadgen.arrive", f.sent_ns, now);
      }
    }
    return per_window;
  };
  const auto drain = [&] {
    std::vector<std::string> replies;
    const std::uint64_t deadline = ns_after(dls::now_ns(), kReplyTimeoutS);
    while (!inflight.empty() && dls::now_ns() < deadline) {
      replies.clear();
      if (!conn.receive(deadline, replies)) break;
      for (const std::string& reply : replies) {
        if (inflight.empty()) break;
        handle(reply, inflight.front());
        inflight.pop_front();
      }
    }
    out.failed += inflight.size();
    inflight.clear();
  };

  // Fill the active set one arrival at a time, then run pairs.
  for (int i = 0; i < kClosedActive; ++i) {
    send_arrive();
    drain();
  }
  (void)pump(ns_after(dls::now_ns(), warm_s), false);
  std::vector<double> untraced, traced;
  drive([&] {
    const double untraced_s = spans ? segment_s / 2 : segment_s;
    const std::vector<double> windows = pump(ns_after(dls::now_ns(), untraced_s), false);
    untraced.insert(untraced.end(), windows.begin(), windows.end());
    out.segment_rps.push_back(median(windows));
    if (spans)
      for (const double r : pump(ns_after(dls::now_ns(), segment_s - untraced_s), true))
        traced.push_back(r);
    drain();
  });
  out.windows = summarize(untraced);
  out.rps = out.windows.p25;
  out.traced_rps = summarize(traced).p25;
  // Cancel what is left so the phase ends with nothing active.
  while (!known.empty()) {
    send_depart();
    drain();
  }
  return out;
}

}  // namespace

std::string Request::line(int id) const {
  std::ostringstream os;
  os.precision(17);
  if (depart) os << "depart " << id << "\n";
  else os << "arrive " << cluster << " " << payoff << " " << load << "\n";
  return os.str();
}

std::vector<Request> open_loop_stream(std::uint64_t seed, double horizon_s) {
  dls::Rng rng(seed);
  std::vector<Request> out;
  int arrival = 0;
  for (const double t : poisson_schedule(kArrivalRate, horizon_s, rng)) {
    Request r;
    r.due_s = t;
    r.arrival = arrival++;
    r.cluster = static_cast<int>(rng.uniform_int(0, kClusters - 1));
    r.payoff = rng.uniform(0.5, 1.5);
    const bool cancel = rng.bernoulli(kCancelShare);
    r.load = cancel ? kCancelledLoad : kMeanLoad * rng.uniform(0.5, 1.5);
    out.push_back(r);
    if (cancel) {
      Request d = r;
      d.depart = true;
      d.due_s = t + kCancelMinS - kCancelMeanS * std::log(1.0 - rng.uniform01());
      out.push_back(d);
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Request& a, const Request& b) {
    return a.due_s < b.due_s;
  });
  return out;
}

dls::platform::Platform make_platform() {
  dls::platform::GeneratorParams params;
  params.num_clusters = kClusters;
  params.ensure_connected = true;
  dls::Rng rng(kClusters);
  return dls::platform::generate_platform(params, rng);
}

}  // namespace perfbench::serve

namespace perfbench {

Result run_serve(const RunConfig& cfg) {
  using namespace serve;
  dls::require(!cfg.dls.empty(), "serve-k16 needs --dls");
  Result res;
  std::vector<double> generate_ms;
  std::uint64_t t0 = dls::now_ns();
  dls::platform::Platform plat = make_platform();
  generate_ms.push_back(static_cast<double>(dls::now_ns() - t0) * 1e-6);
  for (int i = 0; i < 4; ++i) {
    t0 = dls::now_ns();
    plat = make_platform();
    generate_ms.push_back(static_cast<double>(dls::now_ns() - t0) * 1e-6);
  }
  const std::string platform_file = cfg.workdir + "/serve-k16.platform";
  {
    std::ofstream os(platform_file, std::ios::trunc);
    dls::platform::write_platform(plat, os);
    dls::require(os.good(), "cannot write " + platform_file);
  }

  // Phase lengths from --seconds: the open loop gets most of it.
  const double open_warm = 2.0, open_measure = 0.9 * cfg.seconds;
  const double closed_warm = 0.5, closed_measure = 0.8 * cfg.seconds;
  const std::vector<Request> stream =
      open_loop_stream(cfg.seed, open_warm + open_measure);

  // Set-up-only daemon starts, in three rounds spread over the run.
  std::vector<double> setup_s;
  int started = 0, clean_exits = 0;
  const auto setup_round = [&] {
    for (int i = 0; i < kSetupRoundStarts; ++i, ++started) {
      Daemon d(cfg, platform_file, started);
      setup_s.push_back(d.setup_s());
      clean_exits += d.stop();
    }
  };

  std::unique_ptr<SpanLog> spans = cfg.trace ? std::make_unique<SpanLog>() : nullptr;
  // Peak memory is the open-loop daemon's: its work is fixed by the
  // seed, while the closed-loop daemon admits as many loads as the host
  // lets it, and its record of them grows in steps with that count.
  double peak_rss = 0.0, closed_peak_rss = 0.0;

  // The closed loop's segments run before, during (in two pauses of
  // the open loop's sends) and after the open loop, which has a daemon
  // of its own; so do the set-up rounds.
  setup_round();
  Daemon closed_d(cfg, platform_file, kSetupOnlyStarts);
  setup_s.push_back(closed_d.setup_s());
  OpenResult open;
  DaemonState open_after;
  const std::vector<std::size_t> pauses =
      pause_points(stream, open_warm, pause_shares());
  const ClosedResult closed = closed_loop(
      closed_d.port(), cfg.seed, closed_warm,
      closed_measure / static_cast<double>(pauses.size() + 2), spans.get(),
      [&](const std::function<void()>& segment) {
        segment();
        Daemon open_d(cfg, platform_file, kSetupOnlyStarts + 1);
        setup_s.push_back(open_d.setup_s());
        open = open_loop(open_d.port(), stream, open_warm, spans.get(), pauses,
                         [&](int) {
                           setup_round();
                           segment();
                         });
        open_after = settle(open_d.port());
        peak_rss = open_d.peak_rss_mb();
        res.check("serve: open-loop daemon exits cleanly", open_d.stop());
        segment();
      });
  res.check("serve: every set-up daemon exits cleanly",
            started == kSetupOnlyStarts && clean_exits == started);
  res.check("serve open loop: replies arrive in order and admitted ids increase",
            open.in_order);
  check_ledger(res, "serve open loop", open_after, open.sent_arrivals);
  const DaemonState closed_after = settle(closed_d.port());
  closed_peak_rss = closed_d.peak_rss_mb();
  res.check("serve: closed-loop daemon exits cleanly", closed_d.stop());
  res.check("serve closed loop: replies arrive in order and admitted ids increase",
            closed.in_order);
  check_ledger(res, "serve closed loop", closed_after, closed.sent_arrivals);
  res.check("serve closed loop: every long load was cancelled, none completed",
            closed_after.stat("completed") == 0.0 &&
                closed_after.stat("active") == 0.0);

  const Summary ack = summarize(open.ack_ms);
  const Summary late = summarize(open.late_ms);
  res.metrics["throughput_per_s"] = closed.rps;
  res.metrics["latency_p50_ms"] = ack.p50;
  res.metrics["setup_s"] = median(setup_s);
  res.metrics["peak_rss_mb"] = peak_rss;
  res.attempted = open.attempted + closed.attempted;
  res.failed = open.failed + closed.failed;
  std::ostringstream os;
  os << "serve-k16 open loop: " << open.sent_arrivals << " arrivals, ack p50 "
     << ack.p50 << " ms, p75 " << ack.p75 << " ms, p90 " << ack.p90 << " ms, p"
     << ack.tail_pct << " " << ack.tail << " ms over n=" << ack.n
     << "; generator late p" << late.tail_pct << " " << late.tail << " ms; utilization "
     << open_after.stat("utilization_mean") << ", peak active "
     << open_after.stat("peak_active") << "; " << open.scrape_ms.size()
     << " /metrics scrapes; slot grows after warm-up "
     << delta(open.before.metrics, open_after.metrics, "dls_resched_slot_grow_total");
  res.note(os.str());
  os.str("");
  os << "serve-k16 closed loop: " << closed.rps << " acked requests/s with "
     << kClosedInFlight << " in flight holding " << kClosedActive
     << " loads (lower quartile of " << closed.windows.n << " windows of " << kWindowS
     << " s; p50 " << closed.windows.p50 << ", p75 " << closed.windows.p75
     << "); segment medians";
  for (const double r : closed.segment_rps) os << " " << r;
  os << "; daemon peak RSS " << closed_peak_rss << " MiB";
  res.note(os.str());

  if (!cfg.trace) return res;

  const Exposition& m0 = open.before.metrics;
  const Exposition& m1 = open_after.metrics;
  res.metrics["loadgen.late_tail_ms"] = late.tail;
  res.metrics["obs.scrape_p50_ms"] = median(open.scrape_ms);
  res.metrics["obs.metrics_bytes"] = static_cast<double>(open.metrics_bytes);
  res.metrics["serve.loop_lag_p99_ms"] =
      bucket_quantile(m0, m1, "dls_serve_event_loop_lag_seconds", 0.99) * 1e3;
  res.metrics["serve.requests"] = delta(m0, m1, "dls_serve_requests_total");
  res.metrics["serve.rejected"] = delta(m0, m1, "dls_serve_arrivals_total", "rejected");
  const double cold = delta(m0, m1, "dls_resched_solves_total", "start=\"cold\"");
  const double warm = delta(m0, m1, "dls_resched_solves_total", "start=\"warm\"");
  const double repaired =
      delta(m0, m1, "dls_resched_solves_total", "start=\"repaired\"");
  const double solves = cold + warm + repaired;
  res.metrics["online.warm_frac"] = solves > 0 ? (warm + repaired) / solves : 0.0;
  res.metrics["online.repaired_frac"] = solves > 0 ? repaired / solves : 0.0;
  res.metrics["online.slot_grows"] = delta(m0, m1, "dls_resched_slot_grow_total");
  res.metrics["platform.generate_ms"] = median(generate_ms);
  res.metrics["trace.overhead_ratio"] = closed.rps / closed.traced_rps;
  add_lp_metrics(res, m0, m1);
  measure_layers(plat, stream, open.lines, *spans, res);
  res.metrics["serve.wire_us_p50"] =
      ack.p50 * 1e3 - res.metrics["serve.engine_call_us_p50"];
  spans->write_chrome(cfg.workdir + "/trace-serve-k16.json");
  for (const auto& [name, ms] : spans->self_ms())
    res.note("self time " + name + ": " + dls::obs::format_double(ms) + " ms");
  return res;
}

}  // namespace perfbench
