#include "dist/coordinator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "campaign/plan.hpp"
#include "dist/checkpoint.hpp"
#include "dist/protocol.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/event_loop.hpp"
#include "support/timer.hpp"

namespace dls::dist {

namespace {

using campaign::CaseDef;
using campaign::CaseRecord;

/// FAILed-range re-queue budget: once, then the campaign aborts.
constexpr int kMaxFailRequeues = 1;
/// Per-range worker-death budget (guards against a case that kills
/// every worker that touches it).
constexpr int kMaxDeathRequeues = 5;

// Fleet telemetry: lease churn, worker lifecycle, and how close the
// quietest worker is to its heartbeat budget (a rising lag gauge with
// zero deaths means the fleet is stalled, not gone).
struct DistObs {
  obs::Counter leases, requeues, deaths;
  obs::Gauge heartbeat_lag;
  DistObs() {
    auto& reg = obs::registry();
    leases = reg.counter("dls_dist_leases_total", "Ranges leased to workers");
    requeues = reg.counter("dls_dist_requeues_total",
                           "Ranges re-queued after a FAIL or worker loss");
    deaths = reg.counter("dls_dist_worker_deaths_total",
                         "Ready workers lost (EOF, protocol, heartbeat)");
    heartbeat_lag = reg.gauge("dls_dist_heartbeat_lag_seconds",
                              "Longest per-worker silence at the last sweep");
  }
};

DistObs& dist_obs() {
  static DistObs handles;
  return handles;
}

struct Range {
  std::size_t id = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;  ///< exclusive
};

/// Per-connection lease state, keyed by the EventLoop fd (created when
/// the connection first sends).
struct Client {
  std::size_t worker_no = 0;
  bool ready = false;
  std::optional<Range> lease;
  /// CASE records of the current lease, staged until its DONE arrives —
  /// a FAILed or orphaned lease discards them wholesale, so a re-queued
  /// range can never fold twice.
  std::map<std::size_t, std::vector<double>> staged;
};

std::string tail_of(const std::vector<std::string>& tokens, std::size_t from) {
  std::string out;
  for (std::size_t i = from; i < tokens.size(); ++i) {
    if (!out.empty()) out.push_back(' ');
    out += tokens[i];
  }
  return out;
}

}  // namespace

CoordinatorResult serve_campaign(const campaign::ScenarioSpec& spec,
                                 const CoordinatorOptions& options) {
  spec.validate();
  require(options.range_size >= 1, "coordinator: range size must be >= 1");
  require(options.snapshot_every >= 1, "coordinator: snapshot-every must be >= 1");

  const auto say = [&](const std::string& line) {
    if (options.log) options.log(line);
  };

  CoordinatorResult result;
  campaign::CampaignReport& report = result.report;
  report.name = spec.name;
  report.shard_index = 0;
  report.shard_count = 1;
  report.replications = spec.replications;
  const std::vector<CaseDef> defs = campaign::expand_cases(spec, report);
  report.total_cases = defs.size();
  // The distributed run always covers the full matrix — the report must
  // be bit-identical to an unsharded single-process `dls campaign`.
  report.executed_cases = defs.size();
  const std::uint64_t fingerprint = campaign::spec_fingerprint(spec);
  const std::string spec_text = campaign::to_text(spec);

  // ---- fold state --------------------------------------------------------
  // Every case < frontier is folded; `pending` holds delivered records
  // waiting for an earlier range. Identical semantics to the in-process
  // OrderedReducer, minus the blocking (the coordinator never waits).
  std::size_t frontier = 0;
  std::map<std::size_t, std::vector<double>> pending;

  // Live-progress / integrity view: per-range Welford summaries from
  // DONE frames, merged via Accumulator::merge. Checked against the
  // exact fold before the report is returned — a lost, duplicated or
  // corrupted range shows up as count or moment drift here.
  std::vector<std::vector<Accumulator>> crosscheck(report.groups.size());
  for (std::size_t g = 0; g < report.groups.size(); ++g)
    crosscheck[g].resize(report.groups[g].metrics.size());

  if (options.resume) {
    const Checkpoint cp =
        load_checkpoint_file(options.checkpoint_path, fingerprint);
    require(cp.total_cases == defs.size(),
            "coordinator: checkpoint case count disagrees with the spec");
    restore_checkpoint(cp, report);
    frontier = cp.frontier;
    pending = cp.pending;
    result.resumed_cases = frontier + pending.size();
    // Seed the cross-check from the restored fold state (exact at the
    // frontier) plus the pending records, so it stays meaningful across
    // restarts: future DONE summaries only cover newly executed ranges.
    for (std::size_t g = 0; g < report.groups.size(); ++g)
      for (std::size_t m = 0; m < report.groups[g].metrics.size(); ++m)
        crosscheck[g][m] = report.groups[g].metrics[m].acc;
    for (const auto& [index, values] : pending) {
      const std::size_t group = defs[index].group;
      for (std::size_t m = 0; m < values.size(); ++m)
        if (!std::isnan(values[m])) crosscheck[group][m].add(values[m]);
    }
    say("resumed from '" + options.checkpoint_path + "': frontier " +
        std::to_string(frontier) + "/" + std::to_string(defs.size()) + ", " +
        std::to_string(pending.size()) + " pending record(s)");
  }

  // ---- work queue --------------------------------------------------------
  // Contiguous runs of still-missing indices, chunked into leases. On a
  // fresh run this is just [0, total) in range_size pieces.
  std::deque<Range> queue;
  std::size_t next_range_id = 0;
  {
    std::vector<std::size_t> todo;
    for (std::size_t i = frontier; i < defs.size(); ++i)
      if (pending.find(i) == pending.end()) todo.push_back(i);
    std::size_t s = 0;
    while (s < todo.size()) {
      std::size_t e = s + 1;
      while (e < todo.size() && todo[e] == todo[e - 1] + 1 &&
             e - s < options.range_size)
        ++e;
      queue.push_back({next_range_id++, todo[s], todo[e - 1] + 1});
      s = e;
    }
  }
  std::map<std::size_t, int> fail_requeues;   // range id -> FAILs seen
  std::map<std::size_t, int> death_requeues;  // range id -> owners lost

  // ---- listener ----------------------------------------------------------
  EventLoop loop(options.port, options.port_file, options.on_listen);
  say("serving campaign '" + spec.name + "' (" + std::to_string(defs.size()) +
      " cases, " + std::to_string(queue.size()) + " range(s)) on port " +
      std::to_string(loop.port()));

  std::map<int, Client> clients;  // fd -> state
  std::size_t ranges_since_snapshot = 0;
  bool stop_requested = false;

  const auto send_frame = [&](int fd, const std::string& payload) {
    const std::string frame = encode_frame(payload);
    return send_all(loop.conn(fd).sock, frame.data(), frame.size());
  };
  const auto broadcast = [&](const std::string& payload) {
    for (const auto& [fd, conn] : loop.conns()) (void)send_frame(fd, payload);
  };

  const auto snapshot = [&] {
    if (options.checkpoint_path.empty()) return;
    save_checkpoint_file(
        capture_checkpoint(report, fingerprint, defs.size(), frontier, pending),
        options.checkpoint_path);
    ++result.snapshots_written;
    ranges_since_snapshot = 0;
    say("snapshot #" + std::to_string(result.snapshots_written) +
        ": frontier " + std::to_string(frontier) + "/" +
        std::to_string(defs.size()) + ", " + std::to_string(pending.size()) +
        " pending");
    if (options.exit_after_snapshots != 0 &&
        result.snapshots_written >= options.exit_after_snapshots)
      stop_requested = true;
  };

  const auto drain_frontier = [&] {
    auto it = pending.begin();
    while (it != pending.end() && it->first == frontier) {
      CaseRecord record;
      record.index = it->first;
      record.group = defs[it->first].group;
      record.rep = defs[it->first].rep;
      record.values = std::move(it->second);
      campaign::fold_case(report, record);
      if (options.case_sink && !record.values.empty())
        options.case_sink(report, record);
      ++frontier;
      it = pending.erase(it);
    }
  };

  const auto abort_all = [&](const std::string& message) {
    broadcast("ABORT " + message);
    clients.clear();
    throw Error("coordinator: " + message);
  };

  /// Closes a connection. A lost lease goes back at the queue front
  /// (frontier progress first) within its per-range budget; throws
  /// through abort_all on exhaustion.
  const auto drop_client = [&](int fd) {
    if (const auto it = clients.find(fd); it != clients.end()) {
      const Client& client = it->second;
      if (client.ready) {
        ++result.worker_deaths;
        dist_obs().deaths.inc();
      }
      if (client.lease) {
        const Range range = *client.lease;
        const int losses = ++death_requeues[range.id];
        if (losses > kMaxDeathRequeues)
          abort_all("range [" + std::to_string(range.lo) + "," +
                    std::to_string(range.hi) + ") lost " +
                    std::to_string(losses) + " workers — giving up on it");
        queue.push_front(range);
        ++result.ranges_requeued;
        dist_obs().requeues.inc();
        say("requeued range [" + std::to_string(range.lo) + "," +
            std::to_string(range.hi) + ") after worker#" +
            std::to_string(client.worker_no) + " died");
      }
      clients.erase(it);
    }
    loop.close(fd);
  };

  // Returns false when the client must be dropped (protocol violation —
  // its lease is re-queued by the caller).
  const auto handle_payload = [&](int fd, Client& client,
                                  const std::string& payload) {
    std::istringstream lines(payload);
    std::string first;
    std::getline(lines, first);
    const std::vector<std::string> tokens = split_tokens(first);
    if (tokens.empty()) return false;
    const std::string& kind = tokens[0];

    if (kind == "HELLO") {
      if (tokens.size() != 2 ||
          tokens[1] != std::to_string(kProtocolVersion)) {
        (void)send_frame(fd, "ABORT protocol version mismatch (coordinator "
                             "speaks " + std::to_string(kProtocolVersion) + ")");
        return false;
      }
      return send_frame(fd, "SPEC " + encode_hex64(fingerprint) + "\n" + spec_text);
    }
    if (kind == "READY") {
      if (tokens.size() != 2 || decode_hex64(tokens[1]) != fingerprint) {
        (void)send_frame(fd, "ABORT spec fingerprint mismatch");
        return false;
      }
      client.ready = true;
      ++result.workers_seen;
      client.worker_no = result.workers_seen;
      say("worker#" + std::to_string(client.worker_no) + " ready");
      return true;
    }
    if (kind == "PING") {
      // The loop already refreshed last_read_ns. A timestamped
      // PING gets its timestamp echoed back so the worker can measure
      // the round trip; legacy bare PINGs expect (and get) no reply.
      if (tokens.size() >= 2) return send_frame(fd, "PONG " + tokens[1]);
      return true;
    }
    if (kind == "BYE") return false;  // orderly goodbye: close without requeue

    // Everything below concerns the client's current lease.
    if (!client.lease || tokens.size() < 2 ||
        std::strtoull(tokens[1].c_str(), nullptr, 10) != client.lease->id)
      return false;
    const Range range = *client.lease;

    if (kind == "CASE") {
      if (tokens.size() < 4) return false;
      const std::size_t index = std::strtoull(tokens[2].c_str(), nullptr, 10);
      const std::size_t count = std::strtoull(tokens[3].c_str(), nullptr, 10);
      if (index < range.lo || index >= range.hi ||
          tokens.size() != 4 + count)
        return false;
      std::vector<double> values;
      values.reserve(count);
      for (std::size_t v = 0; v < count; ++v)
        values.push_back(decode_double(tokens[4 + v]));
      client.staged[index] = std::move(values);
      return true;
    }

    if (kind == "DONE") {
      if (tokens.size() != 3 ||
          std::strtoull(tokens[2].c_str(), nullptr, 10) != range.hi - range.lo ||
          client.staged.size() != range.hi - range.lo)
        return false;
      // Merge the per-range Welford summaries into the cross-check view.
      std::string line;
      while (std::getline(lines, line)) {
        const std::vector<std::string> sum = split_tokens(line);
        if (sum.size() != 9 || sum[0] != "sum") return false;
        const std::size_t g = std::strtoull(sum[1].c_str(), nullptr, 10);
        const std::size_t m = std::strtoull(sum[2].c_str(), nullptr, 10);
        if (g >= crosscheck.size() || m >= crosscheck[g].size()) return false;
        Accumulator::State state;
        state.n = std::strtoull(sum[3].c_str(), nullptr, 10);
        state.mean = decode_double(sum[4]);
        state.m2 = decode_double(sum[5]);
        state.min = decode_double(sum[6]);
        state.max = decode_double(sum[7]);
        state.sum = decode_double(sum[8]);
        crosscheck[g][m].merge(Accumulator::from_state(state));
      }
      pending.insert(std::make_move_iterator(client.staged.begin()),
                     std::make_move_iterator(client.staged.end()));
      client.staged.clear();
      client.lease.reset();
      drain_frontier();
      ++ranges_since_snapshot;
      if (ranges_since_snapshot >= options.snapshot_every) snapshot();
      return true;
    }

    if (kind == "FAIL") {
      client.staged.clear();
      client.lease.reset();
      const std::string message = tail_of(tokens, 2);
      const int fails = ++fail_requeues[range.id];
      if (fails > kMaxFailRequeues)
        abort_all("range [" + std::to_string(range.lo) + "," +
                  std::to_string(range.hi) + ") failed " +
                  std::to_string(fails) + " time(s): " + message);
      queue.push_front(range);
      ++result.ranges_requeued;
      dist_obs().requeues.inc();
      say("requeued range [" + std::to_string(range.lo) + "," +
          std::to_string(range.hi) + ") after failure (attempt " +
          std::to_string(fails) + "): " + message);
      return true;
    }
    return false;  // unknown message
  };

  // ---- event loop --------------------------------------------------------
  while (!stop_requested) {
    // Completion: nothing queued, nothing leased, everything folded.
    if (frontier == defs.size()) {
      DLS_ASSERT(pending.empty() && queue.empty());
      break;
    }

    // Hand out leases to idle ready workers.
    std::vector<int> to_drop;
    for (auto& [fd, client] : clients) {
      if (!client.ready || client.lease || queue.empty()) continue;
      const Range range = queue.front();
      queue.pop_front();
      client.lease = range;  // on a failed send drop_client puts it back
      client.staged.clear();
      if (!send_frame(fd, "RANGE " + std::to_string(range.id) + " " +
                              std::to_string(range.lo) + " " +
                              std::to_string(range.hi))) {
        to_drop.push_back(fd);
        continue;
      }
      dist_obs().leases.inc();
    }
    for (const int fd : to_drop) drop_client(fd);
    to_drop.clear();

    (void)loop.poll(250);
    for (const int fd : loop.ready()) {
      Client& client = clients[fd];
      EventLoop::Conn& conn = loop.conn(fd);
      bool dead = conn.eof;  // frames that arrived before the EOF still count
      try {
        // Stop folding the moment the exit hook fires: the returned
        // fold state must match the snapshot just written, as a killed
        // process's would.
        std::size_t used = 0;
        while (!stop_requested) {
          const Frame frame = parse_frame(std::string_view(conn.in).substr(used));
          if (frame.consumed == 0) break;
          used += frame.consumed;
          if (!handle_payload(fd, client, frame.payload)) {
            dead = true;
            break;
          }
        }
        conn.in.erase(0, used);
      } catch (const Error&) {
        if (!clients.count(fd)) throw;  // abort_all already cleaned up
        dead = true;  // malformed frame: treat as a dead peer
      }
      if (dead) drop_client(fd);
      if (stop_requested) break;
    }

    // Heartbeat timeouts: silence beyond the budget means the worker —
    // or the path to it — is gone; its lease goes back in the queue.
    if (!stop_requested && options.heartbeat_timeout > 0) {
      const std::uint64_t now = now_ns();
      double worst_silence = 0.0;
      for (const auto& [fd, conn] : loop.conns()) {
        const double silent =
            static_cast<double>(now - conn.last_read_ns) * 1e-9;
        worst_silence = std::max(worst_silence, silent);
        if (silent > options.heartbeat_timeout) to_drop.push_back(fd);
      }
      dist_obs().heartbeat_lag.set(worst_silence);
      for (const int fd : to_drop) {
        say("worker#" + std::to_string(clients[fd].worker_no) +
            " heartbeat timeout");
        drop_client(fd);
      }
      to_drop.clear();
    }
  }

  result.folded_cases = frontier;
  result.executed_cases = frontier - result.resumed_cases;
  result.complete = frontier == defs.size();

  if (result.complete) {
    // Integrity cross-check: the merged per-range summaries must agree
    // with the exact case-order fold. Counts/min/max are exact under
    // merge; mean/sum only up to reassociation.
    for (std::size_t g = 0; g < report.groups.size(); ++g) {
      for (std::size_t m = 0; m < report.groups[g].metrics.size(); ++m) {
        const Accumulator& exact = report.groups[g].metrics[m].acc;
        const Accumulator& merged = crosscheck[g][m];
        const auto close = [](double a, double b) {
          if (std::isnan(a) && std::isnan(b)) return true;
          return std::abs(a - b) <=
                 1e-8 * std::max({1.0, std::abs(a), std::abs(b)});
        };
        if (merged.count() != exact.count() ||
            !close(merged.sum(), exact.sum()) ||
            !close(merged.min(), exact.min()) ||
            !close(merged.max(), exact.max()))
          throw Error(
              "coordinator: integrity cross-check failed for group " +
              std::to_string(g) + " metric '" +
              report.groups[g].metrics[m].name + "' (merged n=" +
              std::to_string(merged.count()) + " vs folded n=" +
              std::to_string(exact.count()) + ") — a range was lost, " +
              "duplicated or corrupted in flight");
      }
    }
    snapshot();  // final frontier == total snapshot (idempotent resume)
    broadcast("FIN");
    say("campaign complete: " + std::to_string(frontier) + " case(s), " +
        std::to_string(result.workers_seen) + " worker(s), " +
        std::to_string(result.ranges_requeued) + " requeue(s)");
  } else {
    say("stopping after snapshot #" +
        std::to_string(result.snapshots_written) + " with frontier " +
        std::to_string(frontier) + "/" + std::to_string(defs.size()));
  }
  return result;
}

}  // namespace dls::dist
