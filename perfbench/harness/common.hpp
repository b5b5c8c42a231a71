// Shared helpers of the benchmark harness: the seeded open-loop send
// schedule, lateness and latency measured from the due time, the
// percentile summary every timing is reported with, and the JSON result
// the harness prints for run.py.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace perfbench {

/// Arrival times (seconds from the schedule start) of a Poisson process
/// of `rate` per second over [0, horizon). A pure function of the Rng
/// state, so the same seed gives the same schedule.
[[nodiscard]] std::vector<double> poisson_schedule(double rate, double horizon,
                                                   dls::Rng& rng);

/// One open-loop request: when it was due, sent and answered (ns on the
/// steady clock). Both lateness and latency count from the due time, so
/// a generator stall is charged to every request it delayed.
struct Timed {
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;
  [[nodiscard]] double late_ms() const { return span_ms(due_ns, sent_ns); }
  [[nodiscard]] double latency_ms() const { return span_ms(due_ns, done_ns); }
  static double span_ms(std::uint64_t from, std::uint64_t to) {
    return to > from ? static_cast<double>(to - from) * 1e-6 : 0.0;
  }
};

/// A timing reported as its median, its 25th, 75th and 90th
/// percentiles, and the highest percentile of the ladder 90, 95, 99,
/// 99.9, 99.99 that has at least ten samples beyond it (nearest-rank).
/// `tail_pct` is 50 when no ladder step qualifies.
struct Summary {
  std::size_t n = 0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;
};
[[nodiscard]] Summary summarize(std::vector<double> samples);

/// Nearest-rank percentile of sorted samples; p in (0, 100].
[[nodiscard]] double nearest_rank(const std::vector<double>& sorted, double p);

[[nodiscard]] double median(std::vector<double> values);

/// Per-item minimum over passes that repeat the same items in the same
/// order. Outside interference slows an item in one pass, rarely in
/// every pass, so the minimum is the item's own cost.
[[nodiscard]] std::vector<double> per_item_min(
    const std::vector<std::vector<double>>& passes);

/// Peak resident set of this process in MiB (getrusage).
[[nodiscard]] double self_peak_rss_mb();

/// Repeats `setup` `times` times, appending each one's wall seconds to
/// `seconds`. Workloads call it before each of their passes, so the
/// median set-up time samples the whole run rather than one moment of
/// it: the host's slow spells last seconds.
void time_setup(int times, const std::function<void()>& setup,
                std::vector<double>& seconds);

/// What a workload's run function hands back to main(): its metrics, its
/// correctness checks, and counts of attempted and failed operations.
struct Result {
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  ///< human-readable lines, printed first
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(const std::string& what, bool ok) { checks.emplace_back(what, ok); }
  void note(const std::string& line) { notes.push_back(line); }
  [[nodiscard]] bool correct() const;
  /// Notes, one "check ..." line per check, then one JSON object line.
  void print() const;
};

/// Common command-line settings of every workload.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;    ///< working directory inside the checkout
  std::string dls;        ///< path of the dls CLI (serve workload)
  std::string root = ".";  ///< repository root (campaign spec, references)
};

Result run_serve(const RunConfig& cfg);
Result run_replay(const RunConfig& cfg);
Result run_campaign(const RunConfig& cfg);
/// Writes the --jobs 1 report of the campaign spec, the committed
/// reference campaign-table1 is checked against.
int write_campaign_reference(const RunConfig& cfg, const std::string& out_path);

}  // namespace perfbench
