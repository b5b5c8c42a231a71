#include "dist/worker.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/exec.hpp"
#include "campaign/plan.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "dist/protocol.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/socket.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace dls::dist {

namespace {

std::string one_line(std::string s) {
  for (char& c : s)
    if (c == '\n' || c == '\r') c = ' ';
  return s;
}

}  // namespace

WorkerResult run_worker(const WorkerOptions& options) {
  require(options.port != 0, "worker: no coordinator port given");
  require(options.jobs >= 0, "worker: negative job count");
  const auto say = [&](const std::string& line) {
    if (options.log) options.log(line);
  };

  // The coordinator may not be listening yet — scripts start both sides
  // concurrently — so retry inside the window before giving up.
  Socket sock;
  const std::uint64_t deadline_ns =
      now_ns() + static_cast<std::uint64_t>(options.retry_seconds * 1e9);
  for (;;) {
    try {
      sock = tcp_connect(options.host, options.port);
      break;
    } catch (const Error&) {
      if (now_ns() >= deadline_ns)
        throw Error("worker: cannot reach coordinator at " + options.host +
                    ":" + std::to_string(options.port) + " within " +
                    std::to_string(options.retry_seconds) + "s");
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  say("connected to " + options.host + ":" + std::to_string(options.port));

  // One blocking socket shared by the executing threads (CASE frames)
  // and the heartbeat thread, serialized by a write mutex.
  std::mutex write_mutex;
  const auto send_payload = [&](const std::string& payload) {
    const std::string frame = encode_frame(payload);
    std::scoped_lock lock(write_mutex);
    return send_all(sock, frame.data(), frame.size());
  };

  std::string in;
  char buf[65536];
  const auto next_frame = [&]() -> std::optional<std::string> {
    for (;;) {
      if (Frame frame = parse_frame(in); frame.consumed > 0) {
        in.erase(0, frame.consumed);
        return std::move(frame.payload);
      }
      const long got = recv_some(sock, buf, sizeof buf);
      if (got == 0) return std::nullopt;  // coordinator gone
      if (got > 0) in.append(buf, static_cast<std::size_t>(got));
    }
  };

  require(send_payload("HELLO " + std::to_string(kProtocolVersion)),
          "worker: connection lost during handshake");

  // The spec arrives over the wire: first line "SPEC <fingerprint>",
  // the rest is canonical .campaign text.
  const auto spec_frame = next_frame();
  require(spec_frame.has_value(), "worker: coordinator hung up before SPEC");
  const std::size_t nl = spec_frame->find('\n');
  const std::vector<std::string> head =
      split_tokens(nl == std::string::npos ? *spec_frame
                                           : spec_frame->substr(0, nl));
  if (head.size() >= 2 && head[0] == "ABORT")
    return {.aborted = true, .abort_message = one_line(spec_frame->substr(6))};
  require(head.size() == 2 && head[0] == "SPEC" && nl != std::string::npos,
          "worker: expected SPEC frame, got '" + head[0] + "'");
  const campaign::ScenarioSpec spec =
      campaign::from_text(spec_frame->substr(nl + 1));
  const std::uint64_t fingerprint = campaign::spec_fingerprint(spec);
  require(fingerprint == decode_hex64(head[1]),
          "worker: spec fingerprint mismatch after parsing — canonical text "
          "disagreement between coordinator and worker builds");

  campaign::CampaignReport skeleton;
  const std::vector<campaign::CaseDef> defs =
      campaign::expand_cases(spec, skeleton);
  campaign::CaseExecutor exec(spec);
  require(send_payload("READY " + encode_hex64(fingerprint)),
          "worker: connection lost during handshake");
  say("campaign '" + spec.name + "': " + std::to_string(defs.size()) +
      " cases expanded");

  // Heartbeat: PING while ranges execute, so the coordinator can tell a
  // busy worker from a dead one. The send timestamp rides along; the
  // coordinator echoes it in a PONG, turning the silent keepalive into
  // a round-trip-time probe (a stalled coordinator shows up as missing
  // or slow PONGs instead of looking exactly like a healthy idle one).
  std::mutex hb_mutex;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  std::thread heartbeat([&] {
    std::unique_lock lock(hb_mutex);
    while (!hb_cv.wait_for(
        lock, std::chrono::duration<double>(options.heartbeat_period),
        [&] { return hb_stop; })) {
      if (!send_payload("PING " + std::to_string(now_ns())))
        return;  // peer gone; main loop sees EOF
    }
  });
  const auto stop_heartbeat = [&] {
    if (!heartbeat.joinable()) return;
    {
      std::scoped_lock lock(hb_mutex);
      hb_stop = true;
    }
    hb_cv.notify_all();
    heartbeat.join();
  };

  const std::size_t threads =
      options.jobs == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : static_cast<std::size_t>(options.jobs);

  static auto& reg = obs::registry();
  static const obs::Counter pong_counter = reg.counter(
      "dls_worker_pongs_total", "Heartbeat round trips completed");
  static const obs::Histogram rtt_hist =
      reg.histogram("dls_worker_heartbeat_rtt_seconds",
                    "Heartbeat round-trip time", obs::default_time_buckets());

  WorkerResult result;
  std::size_t ranges_seen = 0;
  std::uint64_t pongs_seen = 0;
  try {
    for (;;) {
      const auto payload = next_frame();
      if (!payload) {
        say("coordinator closed the connection");
        break;
      }
      const std::vector<std::string> tokens = split_tokens(
          payload->substr(0, std::min(payload->size(), payload->find('\n'))));
      if (tokens.empty()) continue;

      if (tokens[0] == "PONG" && tokens.size() == 2) {
        // Echo of our own timestamped PING; both stamps are now_ns().
        const std::uint64_t sent =
            std::strtoull(tokens[1].c_str(), nullptr, 10);
        const double rtt = static_cast<double>(now_ns() - sent) * 1e-9;
        ++pongs_seen;
        pong_counter.inc();
        rtt_hist.observe(rtt);
        // Log the first round trip only; the rtt histogram carries the
        // ongoing drift signal without drowning range progress lines.
        if (pongs_seen == 1)
          say("heartbeat rtt " + std::to_string(rtt * 1e3) + " ms");
        continue;
      }

      if (tokens[0] == "FIN") {
        (void)send_payload("BYE");
        say("no more work; " + std::to_string(result.ranges_done) +
            " range(s), " + std::to_string(result.cases_run) + " case(s)");
        break;
      }
      if (tokens[0] == "ABORT") {
        result.aborted = true;
        if (payload->size() > 6) result.abort_message = one_line(payload->substr(6));
        break;
      }
      require(tokens[0] == "RANGE" && tokens.size() == 4,
              "worker: unexpected frame '" + tokens[0] + "'");
      const std::size_t id = std::strtoull(tokens[1].c_str(), nullptr, 10);
      const std::size_t lo = std::strtoull(tokens[2].c_str(), nullptr, 10);
      const std::size_t hi = std::strtoull(tokens[3].c_str(), nullptr, 10);
      require(lo < hi && hi <= defs.size(),
              "worker: lease [" + tokens[2] + "," + tokens[3] +
                  ") outside the case matrix");

      ++ranges_seen;
      if (options.die_on_range != 0 && ranges_seen == options.die_on_range) {
        say("test hook: dying on range [" + tokens[2] + "," + tokens[3] + ")");
        if (options.die_hard) std::raise(SIGKILL);
        stop_heartbeat();  // before close: a PING on a dead fd would throw
        sock.close();      // abrupt death, lease outstanding
        break;
      }

      // Per-range Welford summaries, sent with DONE as the
      // coordinator's integrity cross-check (same NaN-skip rule as the
      // fold).
      std::vector<std::vector<Accumulator>> sums(skeleton.groups.size());
      for (std::size_t g = 0; g < skeleton.groups.size(); ++g)
        sums[g].resize(skeleton.groups[g].metrics.size());
      std::mutex state_mutex;
      std::string error_message;  // first failed case wins

      // The lease's execution units: runs of cases sharing a unit
      // ordinal, so exhaust siblings solve their relaxation once.
      std::vector<std::size_t> unit_begin;
      for (std::size_t index = lo; index < hi; ++index)
        if (index == lo || defs[index].unit != defs[index - 1].unit)
          unit_begin.push_back(index);
      unit_begin.push_back(hi);
      const std::size_t units = unit_begin.size() - 1;

      // Fault containment: a throwing unit poisons only its range.
      // The catch is per unit, so the pool never propagates — the
      // range FAILs, the worker (and its process) keeps serving.
      const auto body = [&](std::size_t u) {
        const std::size_t first = unit_begin[u];
        const std::size_t last = unit_begin[u + 1];
        try {
          for (std::size_t index = first; index < last; ++index)
            if (options.fail_case && options.fail_case(index))
              throw Error("injected failure at case " + std::to_string(index));
          const std::vector<std::vector<double>> rows =
              exec.run_unit({&defs[first], last - first});
          for (std::size_t index = first; index < last; ++index) {
            const std::vector<double>& values = rows[index - first];
            std::string line = "CASE " + std::to_string(id) + " " +
                               std::to_string(index) + " " +
                               std::to_string(values.size());
            for (const double v : values) {
              line.push_back(' ');
              line += encode_double(v);
            }
            {
              std::scoped_lock lock(state_mutex);
              if (!error_message.empty()) return;  // range already poisoned
              const std::size_t group = defs[index].group;
              for (std::size_t m = 0; m < values.size(); ++m)
                if (!std::isnan(values[m])) sums[group][m].add(values[m]);
            }
            if (!send_payload(line)) {
              std::scoped_lock lock(state_mutex);
              if (error_message.empty())
                error_message = "coordinator connection lost mid-range";
            }
          }
        } catch (const std::exception& e) {
          std::scoped_lock lock(state_mutex);
          if (error_message.empty()) error_message = one_line(e.what());
        }
      };

      if (threads == 1 || units <= 1) {
        for (std::size_t u = 0; u < units; ++u) body(u);
      } else {
        ThreadPool pool(std::min<std::size_t>(threads, units));
        parallel_for(pool, 0, units, body, 1);
      }

      if (!error_message.empty()) {
        say("range [" + tokens[2] + "," + tokens[3] +
            ") failed: " + error_message);
        if (!send_payload("FAIL " + std::to_string(id) + " " + error_message))
          break;
        continue;
      }
      std::string done = "DONE " + std::to_string(id) + " " +
                         std::to_string(hi - lo);
      for (std::size_t g = 0; g < sums.size(); ++g) {
        for (std::size_t m = 0; m < sums[g].size(); ++m) {
          if (sums[g][m].count() == 0) continue;
          const Accumulator::State s = sums[g][m].state();
          done += "\nsum " + std::to_string(g) + " " + std::to_string(m) +
                  " " + std::to_string(s.n) + " " + encode_double(s.mean) +
                  " " + encode_double(s.m2) + " " + encode_double(s.min) +
                  " " + encode_double(s.max) + " " + encode_double(s.sum);
        }
      }
      if (!send_payload(done)) break;
      ++result.ranges_done;
      result.cases_run += hi - lo;
      say("range [" + tokens[2] + "," + tokens[3] + ") done");
    }
  } catch (...) {
    stop_heartbeat();
    throw;
  }
  stop_heartbeat();
  return result;
}

}  // namespace dls::dist
