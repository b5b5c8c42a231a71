#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "obs/export.hpp"
#include "support/timer.hpp"

namespace perfbench {

std::vector<double> poisson_schedule(double rate, double horizon, dls::Rng& rng) {
  std::vector<double> times;
  double t = 0.0;
  for (;;) {
    // 1 - u lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.uniform01()) / rate;
    if (t >= horizon) break;
    times.push_back(t);
  }
  return times;
}

double nearest_rank(const std::vector<double>& sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p25 = nearest_rank(samples, 25.0);
  s.p50 = nearest_rank(samples, 50.0);
  s.p75 = nearest_rank(samples, 75.0);
  s.p90 = nearest_rank(samples, 90.0);
  s.tail = s.p50;
  for (const double p : {90.0, 95.0, 99.0, 99.9, 99.99}) {
    // Samples strictly beyond the nearest-rank index of p.
    const double beyond = static_cast<double>(s.n) -
                          std::ceil(p / 100.0 * static_cast<double>(s.n));
    if (beyond < 10.0) break;
    s.tail = nearest_rank(samples, p);
    s.tail_pct = p;
  }
  return s;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<double> per_item_min(const std::vector<std::vector<double>>& passes) {
  if (passes.empty()) return {};
  std::vector<double> out = passes.front();
  for (const auto& pass : passes)
    for (std::size_t i = 0; i < out.size() && i < pass.size(); ++i)
      out[i] = std::min(out[i], pass[i]);
  return out;
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void time_setup(int times, const std::function<void()>& setup,
                std::vector<double>& seconds) {
  for (int i = 0; i < times; ++i) {
    const dls::WallTimer timer;
    setup();
    seconds.push_back(timer.seconds());
  }
}

bool Result::correct() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const auto& c) { return c.second; });
}

void Result::print() const {
  for (const std::string& line : notes) std::cout << line << "\n";
  for (const auto& [what, ok] : checks)
    std::cout << "check " << (ok ? "ok   " : "FAIL ") << what << "\n";
  std::cout << "{\"correct\":" << (correct() ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    // JSON has no NaN/Inf; a non-finite value is a harness bug, shown
    // as a failed check rather than as a number.
    std::cout << (first ? "" : ",") << "\"" << name << "\":"
              << (std::isfinite(value) ? dls::obs::format_double(value) : "null");
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace perfbench
