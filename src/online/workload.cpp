#include "online/workload.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

namespace dls::online {

namespace {

/// Exponential draw of the given mean via inversion; uniform01() is in
/// [0, 1) so the log argument stays positive.
double exponential(Rng& rng, double mean) {
  return -mean * std::log1p(-rng.uniform01());
}

AppArrival sample_app(Rng& rng, int num_clusters, double time, double mean_load,
                      double load_spread, double payoff_spread) {
  AppArrival app;
  app.time = time;
  app.cluster = static_cast<int>(rng.index(static_cast<std::size_t>(num_clusters)));
  app.payoff = rng.uniform(1.0 - payoff_spread, 1.0 + payoff_spread);
  app.load = rng.uniform(mean_load * (1.0 - load_spread),
                         mean_load * (1.0 + load_spread));
  return app;
}

void check_sampling_params(int num_clusters, int count, double mean_load,
                           double load_spread, double payoff_spread) {
  require(num_clusters >= 1, "workload: need at least one cluster");
  require(count >= 0, "workload: arrival count cannot be negative");
  require(mean_load > 0.0, "workload: mean load must be positive");
  require(load_spread >= 0.0 && load_spread < 1.0,
          "workload: load spread out of [0,1)");
  require(payoff_spread >= 0.0 && payoff_spread < 1.0,
          "workload: payoff spread out of [0,1)");
}

std::string name_or_dash(const std::string& name) {
  require(name.find_first_of(" \t\n") == std::string::npos,
          "write_workload: names may not contain whitespace");
  return name.empty() ? "-" : name;
}

}  // namespace

void Workload::validate(int num_clusters) const {
  double prev = 0.0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const AppArrival& a = arrivals[i];
    // The arrival index joins the message only when a check fails.
    const auto check = [i](bool ok, const char* what) {
      if (!ok) throw Error(std::string(what) + " at arrival " + std::to_string(i));
    };
    check(std::isfinite(a.time) && a.time >= 0.0,
          "workload: bad arrival time");
    check(a.time >= prev, "workload: arrival times must be non-decreasing");
    check(a.cluster >= 0 && a.cluster < num_clusters,
          "workload: cluster out of range");
    check(std::isfinite(a.payoff) && a.payoff > 0.0,
          "workload: payoff must be positive");
    check(std::isfinite(a.load) && a.load > 0.0,
          "workload: load must be positive");
    prev = a.time;
  }
}

Workload poisson_workload(const PoissonParams& p, int num_clusters, Rng& rng) {
  check_sampling_params(num_clusters, p.count, p.mean_load, p.load_spread,
                        p.payoff_spread);
  require(p.rate > 0.0, "poisson_workload: rate must be positive");
  Workload wl;
  wl.arrivals.reserve(static_cast<std::size_t>(p.count));
  double t = 0.0;
  for (int i = 0; i < p.count; ++i) {
    t += exponential(rng, 1.0 / p.rate);
    wl.arrivals.push_back(sample_app(rng, num_clusters, t, p.mean_load,
                                     p.load_spread, p.payoff_spread));
  }
  return wl;
}

Workload batch_workload(const PoissonParams& p, int num_clusters, Rng& rng) {
  check_sampling_params(num_clusters, p.count, p.mean_load, p.load_spread,
                        p.payoff_spread);
  Workload wl;
  wl.arrivals.reserve(static_cast<std::size_t>(p.count));
  for (int i = 0; i < p.count; ++i)
    wl.arrivals.push_back(sample_app(rng, num_clusters, 0.0, p.mean_load,
                                     p.load_spread, p.payoff_spread));
  return wl;
}

Workload onoff_workload(const OnOffParams& p, int num_clusters, Rng& rng) {
  check_sampling_params(num_clusters, p.count, p.mean_load, p.load_spread,
                        p.payoff_spread);
  require(p.burst_rate > 0.0, "onoff_workload: burst rate must be positive");
  require(p.mean_on > 0.0 && p.mean_off >= 0.0,
          "onoff_workload: mean_on must be positive and mean_off non-negative");
  Workload wl;
  wl.arrivals.reserve(static_cast<std::size_t>(p.count));
  double t = 0.0;
  while (wl.size() < p.count) {
    // One ON window: Poisson arrivals at burst_rate until the window ends.
    const double window_end = t + exponential(rng, p.mean_on);
    while (wl.size() < p.count) {
      t += exponential(rng, 1.0 / p.burst_rate);
      if (t >= window_end) break;
      wl.arrivals.push_back(sample_app(rng, num_clusters, t, p.mean_load,
                                       p.load_spread, p.payoff_spread));
    }
    t = window_end + exponential(rng, p.mean_off);
  }
  return wl;
}

void write_workload(const Workload& workload, std::ostream& os) {
  os.precision(17);
  os << "dls-workload 1\n";
  for (const AppArrival& a : workload.arrivals)
    os << "app " << a.time << ' ' << a.cluster << ' ' << a.payoff << ' '
       << a.load << ' ' << name_or_dash(a.name) << '\n';
}

namespace {

[[noreturn]] void parse_fail(int line, const std::string& what) {
  throw Error("read_workload: line " + std::to_string(line) + ": " + what);
}

double parse_field(std::istringstream& iss, const char* what, int line) {
  double v = 0.0;
  if (!(iss >> v))
    parse_fail(line, std::string("truncated or malformed line (expected ") +
                         what + ")");
  return v;
}

}  // namespace

Workload read_workload(std::istream& is) {
  // Line-based parse with explicit diagnostics (truncated lines, negative
  // times, out-of-order arrivals all name their line); the `.events`
  // parser (dynamics/events.cpp) mirrors this style.
  std::string line;
  int line_no = 0;
  std::string header;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    header = line;
    break;
  }
  {
    std::istringstream iss(header);
    std::string magic;
    int version = 0;
    iss >> magic >> version;
    require(static_cast<bool>(iss) && magic == "dls-workload" && version == 1,
            "read_workload: bad header (expected 'dls-workload 1')");
  }

  Workload wl;
  double prev = 0.0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::istringstream iss(line);
    std::string keyword;
    iss >> keyword;
    if (keyword != "app") parse_fail(line_no, "unknown keyword '" + keyword + "'");
    AppArrival a;
    a.time = parse_field(iss, "an arrival time", line_no);
    if (!std::isfinite(a.time) || a.time < 0.0)
      parse_fail(line_no, "arrival time must be finite and non-negative");
    if (a.time < prev)
      parse_fail(line_no, "out-of-order arrival time (times must be non-decreasing)");
    prev = a.time;
    const double cluster = parse_field(iss, "a cluster id", line_no);
    if (cluster != std::floor(cluster) || cluster < 0.0 || cluster > 1e9)
      parse_fail(line_no, "cluster must be a non-negative integer id");
    a.cluster = static_cast<int>(cluster);
    a.payoff = parse_field(iss, "a payoff", line_no);
    if (!std::isfinite(a.payoff) || a.payoff <= 0.0)
      parse_fail(line_no, "payoff must be positive");
    a.load = parse_field(iss, "a load", line_no);
    if (!std::isfinite(a.load) || a.load <= 0.0)
      parse_fail(line_no, "load must be positive");
    // The name is optional: the rest of the line may be empty, "-" (the
    // writer's no-name marker), or a single token.
    std::string name, extra;
    if (iss >> name) {
      if (iss >> extra)
        parse_fail(line_no, "unexpected trailing token '" + extra + "'");
      if (name != "-") a.name = std::move(name);
    }
    wl.arrivals.push_back(std::move(a));
  }
  return wl;
}

std::string to_text(const Workload& workload) {
  std::ostringstream oss;
  write_workload(workload, oss);
  return oss.str();
}

Workload from_text(const std::string& text) {
  std::istringstream iss(text);
  return read_workload(iss);
}

}  // namespace dls::online
