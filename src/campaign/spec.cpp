#include "campaign/spec.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <istream>
#include <ostream>
#include <sstream>

#include "support/error.hpp"

namespace dls::campaign {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw Error("read_campaign: line " + std::to_string(line) + ": " + what);
}

/// key=value options on a spec line. Values may not contain whitespace
/// (paths with spaces are rejected, keeping the format line-splittable).
class LineOptions {
public:
  LineOptions(std::istringstream& iss, int line) : line_(line) {
    std::string token;
    while (iss >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0) {
        fail(line, "expected key=value, got '" + token + "'");
      }
      std::string key = token.substr(0, eq);
      if (std::find(keys_.begin(), keys_.end(), key) != keys_.end()) {
        fail(line, "duplicate key '" + key + "'");
      }
      keys_.push_back(std::move(key));
      values_.push_back(token.substr(eq + 1));
      used_.push_back(false);
    }
  }

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) {
    const int at = find(key);
    return at < 0 ? fallback : values_[at];
  }

  [[nodiscard]] double get_double(const std::string& key, double fallback) {
    const int at = find(key);
    if (at < 0) return fallback;
    return parse_double(values_[at], key);
  }

  [[nodiscard]] int get_int(const std::string& key, int fallback) {
    const int at = find(key);
    if (at < 0) return fallback;
    const double v = parse_double(values_[at], key);
    if (v != std::floor(v) || std::fabs(v) > 1e9) {
      fail(line_, "key '" + key + "': expected an integer, got '" + values_[at] +
                      "'");
    }
    return static_cast<int>(v);
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) {
    const int at = find(key);
    if (at < 0) return fallback;
    if (values_[at] == "1" || values_[at] == "true") return true;
    if (values_[at] == "0" || values_[at] == "false") return false;
    fail(line_, "key '" + key + "': expected 0/1/true/false, got '" +
                    values_[at] + "'");
  }

  /// Comma-separated doubles for axis keys (clusters=6,10).
  [[nodiscard]] std::vector<double> get_double_list(const std::string& key,
                                                    double fallback) {
    const int at = find(key);
    if (at < 0) return {fallback};
    std::vector<double> out;
    std::istringstream iss(values_[at]);
    std::string item;
    while (std::getline(iss, item, ',')) {
      if (item.empty()) fail(line_, "key '" + key + "': empty list element");
      out.push_back(parse_double(item, key));
    }
    if (out.empty()) fail(line_, "key '" + key + "': empty value");
    return out;
  }

  /// Comma-separated strings for axis keys (mix=uniform,hotspot).
  [[nodiscard]] std::vector<std::string> get_string_list(
      const std::string& key, const std::string& fallback) {
    const int at = find(key);
    if (at < 0) return {fallback};
    std::vector<std::string> out;
    std::istringstream iss(values_[at]);
    std::string item;
    while (std::getline(iss, item, ',')) {
      if (item.empty()) fail(line_, "key '" + key + "': empty list element");
      out.push_back(std::move(item));
    }
    if (out.empty()) fail(line_, "key '" + key + "': empty value");
    return out;
  }

  void reject_unknown() const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (!used_[i]) fail(line_, "unknown key '" + keys_[i] + "'");
    }
  }

private:
  [[nodiscard]] int find(const std::string& key) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == key) {
        used_[i] = true;
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  [[nodiscard]] double parse_double(const std::string& text,
                                    const std::string& key) const {
    std::istringstream iss(text);
    double v = 0.0;
    char trailing = 0;
    if (!(iss >> v) || iss >> trailing || !std::isfinite(v)) {
      fail(line_, "key '" + key + "': malformed number '" + text + "'");
    }
    return v;
  }

  int line_;
  std::vector<std::string> keys_;
  std::vector<std::string> values_;
  std::vector<char> used_;
};

/// File-name tail for derived labels ("data/x.platform" -> "x.platform").
std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string format_double(double v) {
  std::ostringstream oss;
  oss.precision(17);
  oss << v;
  return oss.str();
}

/// Compact spelling for derived labels (labels are identifiers, not
/// round-trip carriers — "0.4", not "0.40000000000000002"; near-ties
/// are disambiguated by dedupe()).
std::string label_double(double v) {
  std::ostringstream oss;
  oss << v;
  return oss.str();
}

/// Keeps derived labels unique so report groups stay distinguishable
/// when two axis lines expand to the same description. The suffix
/// separator must survive a canonical round trip, so it cannot be '#'
/// (the comment character) or contain whitespace.
std::string dedupe(std::vector<std::string>& seen, std::string label) {
  if (std::find(seen.begin(), seen.end(), label) != seen.end()) {
    label += "~" + std::to_string(seen.size());
  }
  seen.push_back(label);
  return label;
}

/// Explicit labels are the user's group keys: a duplicate would make
/// two report groups indistinguishable (and label-keyed lookups like
/// the degradation pairing silently read the wrong one), so it is a
/// contradiction, not a dedupe case.
void claim_label(std::vector<std::string>& seen, const std::string& label,
                 int line) {
  if (std::find(seen.begin(), seen.end(), label) != seen.end()) {
    fail(line, "duplicate label '" + label + "'");
  }
  seen.push_back(label);
}

Method parse_method(const std::string& token, int line) {
  if (token == "g") return Method::G;
  if (token == "lpr") return Method::Lpr;
  if (token == "lprg") return Method::Lprg;
  if (token == "lprr") return Method::Lprr;
  if (token == "lp") return Method::Lp;
  fail(line, "unknown method '" + token + "' (expected g|lpr|lprg|lprr|lp)");
}

core::Objective parse_objective(const std::string& token, int line) {
  if (token == "maxmin") return core::Objective::MaxMin;
  if (token == "sum") return core::Objective::Sum;
  fail(line, "unknown objective '" + token + "' (expected maxmin|sum)");
}

core::LocalExhaustPolicy parse_exhaust(const std::string& token, int line) {
  if (token == "take") return core::LocalExhaustPolicy::TakeRemaining;
  if (token == "drop") return core::LocalExhaustPolicy::DropApplication;
  fail(line, "unknown exhaust policy '" + token + "' (expected take|drop)");
}

}  // namespace

const char* to_string(Method method) {
  switch (method) {
    case Method::G: return "g";
    case Method::Lpr: return "lpr";
    case Method::Lprg: return "lprg";
    case Method::Lprr: return "lprr";
    case Method::Lp: return "lp";
  }
  return "?";
}

const char* axis_name(core::Objective objective) {
  return objective == core::Objective::MaxMin ? "maxmin" : "sum";
}

const char* to_string(core::LocalExhaustPolicy exhaust) {
  return exhaust == core::LocalExhaustPolicy::TakeRemaining ? "take" : "drop";
}

const char* to_string(online::WarmPolicy warm) {
  switch (warm) {
    case online::WarmPolicy::Auto: return "auto";
    case online::WarmPolicy::Never: return "never";
    case online::WarmPolicy::Always: return "always";
  }
  return "?";
}

const char* to_string(online::RateModel model) {
  return model == online::RateModel::Fluid ? "fluid" : "sim";
}

const char* to_string(sim::SharingPolicy policy) {
  switch (policy) {
    case sim::SharingPolicy::Paced: return "paced";
    case sim::SharingPolicy::MaxMin: return "maxmin";
    case sim::SharingPolicy::TcpRttBias: return "tcp";
    case sim::SharingPolicy::BoundedWindow: return "window";
  }
  return "?";
}

namespace {

/// Looks `token` up among the spellings to_string gives `values`.
template <class Enum>
bool parse_spelling(const std::string& token, std::initializer_list<Enum> values,
                    Enum& out) {
  for (const Enum value : values) {
    if (token != to_string(value)) continue;
    out = value;
    return true;
  }
  return false;
}

}  // namespace

bool parse_warm(const std::string& token, online::WarmPolicy& out) {
  return parse_spelling(token,
                        {online::WarmPolicy::Auto, online::WarmPolicy::Never,
                         online::WarmPolicy::Always},
                        out);
}

bool parse_rate_model(const std::string& token, online::RateModel& out) {
  return parse_spelling(token, {online::RateModel::Fluid, online::RateModel::Simulated},
                        out);
}

bool parse_policy(const std::string& token, sim::SharingPolicy& out) {
  return parse_spelling(token,
                        {sim::SharingPolicy::Paced, sim::SharingPolicy::MaxMin,
                         sim::SharingPolicy::TcpRttBias,
                         sim::SharingPolicy::BoundedWindow},
                        out);
}

void ScenarioSpec::validate() const {
  require(!name.empty(), "campaign spec: empty name");
  require(replications >= 1, "campaign spec: replications must be >= 1");
  require(!platforms.empty(), "campaign spec: no platform axis values");
  require(!scenarios.empty(), "campaign spec: no workload axis values");
  require(!methods.empty(), "campaign spec: empty method axis");
  require(!objectives.empty(), "campaign spec: empty objective axis");
  require(!warm.empty(), "campaign spec: empty warm axis");
  require(!exhaust.empty(), "campaign spec: empty exhaust axis");
  require(payoff_spread >= 0.0 && payoff_spread < 1.0,
          "campaign spec: payoff-spread out of [0, 1)");
  require(sim_window_units > 0.0 && std::isfinite(sim_window_units),
          "campaign spec: window must be positive");
  const bool has_stream =
      std::any_of(scenarios.begin(), scenarios.end(),
                  [](const WorkloadSource& s) { return s.stream(); });
  if (has_stream) {
    require(std::find(methods.begin(), methods.end(), Method::Lprr) ==
                methods.end(),
            "campaign spec: method lprr is offline-only and cannot run a "
            "stream workload");
  }
  for (const PlatformSource& p : platforms) {
    require(!p.label.empty(), "campaign spec: platform cell without a label");
    switch (p.kind) {
      case PlatformSource::Kind::File:
        require(!p.path.empty(), "campaign spec: platform file without a path");
        break;
      case PlatformSource::Kind::Generate:
        require(p.params.num_clusters >= 1,
                "campaign spec: generate cell needs clusters >= 1");
        break;
      case PlatformSource::Kind::Grid:
        require(p.grid_clusters >= 1,
                "campaign spec: grid cell needs clusters >= 1");
        break;
    }
  }
  for (const WorkloadSource& s : scenarios) {
    require(!s.label.empty(), "campaign spec: scenario without a label");
    require(s.kind != WorkloadSource::Kind::Trace || !s.path.empty(),
            "campaign spec: workload trace without a path");
    require(s.dyn != WorkloadSource::DynKind::Trace || !s.events_path.empty(),
            "campaign spec: dynamics trace without a path");
    require(s.dyn == WorkloadSource::DynKind::None || s.stream(),
            "campaign spec: dynamics requires a stream workload");
    if (s.kind == WorkloadSource::Kind::Loads) {
      require(s.load_count >= 1, "campaign spec: loads count must be >= 1");
      require(s.load_mix == "uniform" || s.load_mix == "hotspot",
              "campaign spec: loads mix must be uniform or hotspot");
      require(s.weight_spread >= 0.0 && s.weight_spread < 1.0,
              "campaign spec: loads weight-spread out of [0, 1)");
      require(s.ratio_spread >= 0.0 && s.ratio_spread < 1.0,
              "campaign spec: loads ratio-spread out of [0, 1)");
      require(s.cap_factor >= 0.0 && std::isfinite(s.cap_factor),
              "campaign spec: loads cap must be >= 0 (0 = uncapped)");
    }
    if (s.dyn == WorkloadSource::DynKind::Scenario) {
      require(s.event_rate > 0.0 && std::isfinite(s.event_rate),
              "campaign spec: dynamics event-rate must be positive");
      require(s.severity >= 0.0 && s.severity <= 1.0,
              "campaign spec: dynamics severity out of [0, 1]");
      require(s.horizon >= 0.0 && std::isfinite(s.horizon),
              "campaign spec: dynamics horizon must be >= 0 (0 = auto)");
    }
  }
}

// ---- writer -----------------------------------------------------------------

void write_campaign(const ScenarioSpec& spec, std::ostream& os) {
  os << "dls-campaign 1\n";
  os << "name " << spec.name << '\n';
  os << "seed " << spec.seed << '\n';
  os << "replications " << spec.replications << '\n';
  os << "payoff-spread " << format_double(spec.payoff_spread) << '\n';
  os << "rate-model " << to_string(spec.rate_model) << '\n';
  os << "policy " << to_string(spec.sim_policy) << '\n';
  os << "window " << format_double(spec.sim_window_units) << '\n';
  os << "objective";
  for (const core::Objective o : spec.objectives) os << ' ' << axis_name(o);
  os << '\n';
  os << "method";
  for (const Method m : spec.methods) os << ' ' << to_string(m);
  os << '\n';
  os << "warm";
  for (const online::WarmPolicy w : spec.warm) os << ' ' << to_string(w);
  os << '\n';
  os << "exhaust";
  for (const core::LocalExhaustPolicy e : spec.exhaust) os << ' ' << to_string(e);
  os << '\n';

  for (const PlatformSource& p : spec.platforms) {
    os << "platform ";
    switch (p.kind) {
      case PlatformSource::Kind::File:
        os << "file label=" << p.label << " path=" << p.path;
        break;
      case PlatformSource::Kind::Generate: {
        const platform::GeneratorParams& g = p.params;
        os << "generate label=" << p.label << " clusters=" << g.num_clusters
           << " connectivity=" << format_double(g.connectivity)
           << " heterogeneity=" << format_double(g.heterogeneity)
           << " gateway=" << format_double(g.mean_gateway_bw)
           << " bw=" << format_double(g.mean_backbone_bw)
           << " maxcon=" << format_double(g.mean_max_connections)
           << " speed=" << format_double(g.cluster_speed)
           << " latency=" << format_double(g.mean_latency)
           << " transit=" << g.num_transit_routers
           << " connected=" << (g.ensure_connected ? 1 : 0);
        break;
      }
      case PlatformSource::Kind::Grid:
        os << "grid label=" << p.label << " clusters=" << p.grid_clusters;
        break;
    }
    os << '\n';
  }

  for (const WorkloadSource& s : spec.scenarios) {
    if (s.kind == WorkloadSource::Kind::Loads) {
      os << "loads label=" << s.label << " count=" << s.load_count
         << " mix=" << s.load_mix
         << " objective=" << core::to_string(s.multi_objective)
         << " weight-spread=" << format_double(s.weight_spread)
         << " ratio-spread=" << format_double(s.ratio_spread)
         << " cap=" << format_double(s.cap_factor) << '\n';
      continue;
    }
    os << "workload ";
    switch (s.kind) {
      case WorkloadSource::Kind::None:
        os << "none label=" << s.label;
        break;
      case WorkloadSource::Kind::Batch:
        os << "batch label=" << s.label << " count=" << s.poisson.count
           << " mean-load=" << format_double(s.poisson.mean_load)
           << " load-spread=" << format_double(s.poisson.load_spread)
           << " payoff-spread=" << format_double(s.poisson.payoff_spread);
        break;
      case WorkloadSource::Kind::Poisson:
        os << "poisson label=" << s.label << " arrivals=" << s.poisson.count
           << " rate=" << format_double(s.poisson.rate)
           << " mean-load=" << format_double(s.poisson.mean_load)
           << " load-spread=" << format_double(s.poisson.load_spread)
           << " payoff-spread=" << format_double(s.poisson.payoff_spread);
        break;
      case WorkloadSource::Kind::OnOff:
        os << "onoff label=" << s.label << " arrivals=" << s.onoff.count
           << " burst-rate=" << format_double(s.onoff.burst_rate)
           << " mean-on=" << format_double(s.onoff.mean_on)
           << " mean-off=" << format_double(s.onoff.mean_off)
           << " mean-load=" << format_double(s.onoff.mean_load)
           << " load-spread=" << format_double(s.onoff.load_spread)
           << " payoff-spread=" << format_double(s.onoff.payoff_spread);
        break;
      case WorkloadSource::Kind::Trace:
        os << "trace label=" << s.label << " path=" << s.path;
        break;
      case WorkloadSource::Kind::Loads:
        break;  // handled above
    }
    os << '\n';
    switch (s.dyn) {
      case WorkloadSource::DynKind::None:
        break;
      case WorkloadSource::DynKind::Scenario:
        os << "dynamics scenario event-rate=" << format_double(s.event_rate)
           << " severity=" << format_double(s.severity)
           << " horizon=" << format_double(s.horizon) << '\n';
        break;
      case WorkloadSource::DynKind::Trace:
        os << "dynamics trace path=" << s.events_path << '\n';
        break;
    }
  }
}

// ---- parser -----------------------------------------------------------------

ScenarioSpec read_campaign(std::istream& is) {
  ScenarioSpec spec;
  spec.methods.clear();
  spec.objectives.clear();
  spec.warm.clear();
  spec.exhaust.clear();

  std::string line;
  int line_no = 0;
  bool have_header = false;
  std::vector<std::string> platform_labels;
  std::vector<std::string> scenario_labels;
  int method_line = 0;
  std::vector<std::string> seen_singletons;
  // Every singleton keyword is last-wins-free and every singleton line
  // is fully consumed: duplicates and trailing tokens both diagnose.
  const auto singleton = [&](const std::string& keyword, int line) {
    if (std::find(seen_singletons.begin(), seen_singletons.end(), keyword) !=
        seen_singletons.end()) {
      fail(line, "duplicate '" + keyword + "'");
    }
    seen_singletons.push_back(keyword);
  };
  const auto expect_line_end = [](std::istringstream& iss, int line) {
    std::string extra;
    if (iss >> extra) fail(line, "unexpected trailing token '" + extra + "'");
  };

  while (std::getline(is, line)) {
    ++line_no;
    // Strip comments; blank lines are skipped.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    std::istringstream iss(line);
    std::string keyword;
    iss >> keyword;

    if (!have_header) {
      int version = 0;
      if (keyword != "dls-campaign" || !(iss >> version) || version != 1) {
        throw Error("read_campaign: bad header (expected 'dls-campaign 1')");
      }
      std::string extra;
      if (iss >> extra) fail(line_no, "unexpected trailing token '" + extra + "'");
      have_header = true;
      continue;
    }

    if (keyword == "name") {
      singleton(keyword, line_no);
      if (!(iss >> spec.name)) fail(line_no, "expected a campaign name");
      expect_line_end(iss, line_no);
    } else if (keyword == "seed") {
      singleton(keyword, line_no);
      if (!(iss >> spec.seed)) fail(line_no, "expected an unsigned seed");
      expect_line_end(iss, line_no);
    } else if (keyword == "replications") {
      singleton(keyword, line_no);
      if (!(iss >> spec.replications) || spec.replications < 1) {
        fail(line_no, "expected a replication count >= 1");
      }
      expect_line_end(iss, line_no);
    } else if (keyword == "payoff-spread") {
      singleton(keyword, line_no);
      if (!(iss >> spec.payoff_spread) || spec.payoff_spread < 0.0 ||
          spec.payoff_spread >= 1.0) {
        fail(line_no, "expected a payoff spread in [0, 1)");
      }
      expect_line_end(iss, line_no);
    } else if (keyword == "rate-model") {
      singleton(keyword, line_no);
      std::string token;
      if (!(iss >> token)) fail(line_no, "expected fluid|sim");
      if (!parse_rate_model(token, spec.rate_model)) {
        fail(line_no, "unknown rate model '" + token + "' (expected fluid|sim)");
      }
      expect_line_end(iss, line_no);
    } else if (keyword == "policy") {
      singleton(keyword, line_no);
      std::string token;
      if (!(iss >> token)) fail(line_no, "expected paced|maxmin|tcp|window");
      if (!parse_policy(token, spec.sim_policy)) {
        fail(line_no, "unknown sharing policy '" + token + "'");
      }
      expect_line_end(iss, line_no);
    } else if (keyword == "window") {
      singleton(keyword, line_no);
      if (!(iss >> spec.sim_window_units) || spec.sim_window_units <= 0.0) {
        fail(line_no, "expected a positive window size (units)");
      }
      expect_line_end(iss, line_no);
    } else if (keyword == "objective") {
      if (!spec.objectives.empty()) fail(line_no, "duplicate 'objective'");
      std::string token;
      while (iss >> token) {
        const core::Objective o = parse_objective(token, line_no);
        if (std::find(spec.objectives.begin(), spec.objectives.end(), o) !=
            spec.objectives.end()) {
          fail(line_no, "repeated objective '" + token + "'");
        }
        spec.objectives.push_back(o);
      }
      if (spec.objectives.empty()) fail(line_no, "expected at least one objective");
    } else if (keyword == "method") {
      if (!spec.methods.empty()) fail(line_no, "duplicate 'method'");
      method_line = line_no;
      std::string token;
      while (iss >> token) {
        const Method m = parse_method(token, line_no);
        if (std::find(spec.methods.begin(), spec.methods.end(), m) !=
            spec.methods.end()) {
          fail(line_no, "repeated method '" + token + "'");
        }
        spec.methods.push_back(m);
      }
      if (spec.methods.empty()) fail(line_no, "expected at least one method");
    } else if (keyword == "warm") {
      if (!spec.warm.empty()) fail(line_no, "duplicate 'warm'");
      std::string token;
      while (iss >> token) {
        online::WarmPolicy w{};
        if (!parse_warm(token, w)) {
          fail(line_no,
               "unknown warm policy '" + token + "' (expected auto|never|always)");
        }
        if (std::find(spec.warm.begin(), spec.warm.end(), w) != spec.warm.end()) {
          fail(line_no, "repeated warm policy '" + token + "'");
        }
        spec.warm.push_back(w);
      }
      if (spec.warm.empty()) fail(line_no, "expected at least one warm policy");
    } else if (keyword == "exhaust") {
      if (!spec.exhaust.empty()) fail(line_no, "duplicate 'exhaust'");
      std::string token;
      while (iss >> token) {
        const core::LocalExhaustPolicy e = parse_exhaust(token, line_no);
        if (std::find(spec.exhaust.begin(), spec.exhaust.end(), e) !=
            spec.exhaust.end()) {
          fail(line_no, "repeated exhaust policy '" + token + "'");
        }
        spec.exhaust.push_back(e);
      }
      if (spec.exhaust.empty()) fail(line_no, "expected at least one exhaust policy");
    } else if (keyword == "platform") {
      std::string kind;
      if (!(iss >> kind)) fail(line_no, "expected file|generate|grid");
      LineOptions opt(iss, line_no);
      if (kind == "file") {
        PlatformSource p;
        p.kind = PlatformSource::Kind::File;
        p.path = opt.get_string("path", "");
        if (p.path.empty()) fail(line_no, "platform file: missing path=");
        p.label = opt.get_string("label", "");
        if (p.label.empty()) p.label = dedupe(platform_labels, basename_of(p.path));
        else claim_label(platform_labels, p.label, line_no);
        opt.reject_unknown();
        spec.platforms.push_back(std::move(p));
      } else if (kind == "grid") {
        const std::vector<double> ks = opt.get_double_list("clusters", 10);
        const std::string label = opt.get_string("label", "");
        opt.reject_unknown();
        for (const double kd : ks) {
          if (kd != std::floor(kd) || kd < 1) {
            fail(line_no, "grid clusters must be positive integers");
          }
          PlatformSource p;
          p.kind = PlatformSource::Kind::Grid;
          p.grid_clusters = static_cast<int>(kd);
          p.label = label.empty()
                        ? dedupe(platform_labels,
                                 "grid:K=" + std::to_string(p.grid_clusters))
                        : (ks.size() == 1 ? label
                                          : label + ":K=" +
                                                std::to_string(p.grid_clusters));
          if (!label.empty()) claim_label(platform_labels, p.label, line_no);
          spec.platforms.push_back(std::move(p));
        }
      } else if (kind == "generate") {
        // Comma lists expand into the cross product of cells.
        const std::vector<double> clusters = opt.get_double_list("clusters", 10);
        const std::vector<double> connectivity =
            opt.get_double_list("connectivity", 0.4);
        const std::vector<double> heterogeneity =
            opt.get_double_list("heterogeneity", 0.5);
        const std::vector<double> gateway = opt.get_double_list("gateway", 250);
        const std::vector<double> bw = opt.get_double_list("bw", 50);
        const std::vector<double> maxcon = opt.get_double_list("maxcon", 50);
        const std::vector<double> speed = opt.get_double_list("speed", 100);
        const std::vector<double> latency = opt.get_double_list("latency", 0);
        const std::vector<double> transit = opt.get_double_list("transit", 0);
        const bool connected = opt.get_bool("connected", false);
        const std::string label = opt.get_string("label", "");
        opt.reject_unknown();

        struct Axis {
          const char* key;
          const std::vector<double>* values;
        };
        const Axis axes[] = {
            {"clusters", &clusters}, {"connectivity", &connectivity},
            {"heterogeneity", &heterogeneity}, {"gateway", &gateway},
            {"bw", &bw}, {"maxcon", &maxcon}, {"speed", &speed},
            {"latency", &latency}, {"transit", &transit},
        };
        std::size_t cells = 1;
        for (const Axis& a : axes) cells *= a.values->size();
        if (cells > 100000) fail(line_no, "generate line expands to too many cells");

        for (std::size_t cell = 0; cell < cells; ++cell) {
          std::size_t rest = cell;
          double picked[9];
          std::string varying;
          for (std::size_t a = 0; a < 9; ++a) {
            const std::vector<double>& vs = *axes[a].values;
            picked[a] = vs[rest % vs.size()];
            if (vs.size() > 1) {
              if (!varying.empty()) varying += ',';
              varying += std::string(axes[a].key) + "=" + label_double(picked[a]);
            }
            rest /= vs.size();
          }
          for (const std::size_t at : {std::size_t{0}, std::size_t{8}}) {
            if (picked[at] != std::floor(picked[at]) || picked[at] < (at == 0)) {
              fail(line_no, std::string("generate ") + axes[at].key +
                                " must be integral");
            }
          }
          PlatformSource p;
          p.kind = PlatformSource::Kind::Generate;
          p.params.num_clusters = static_cast<int>(picked[0]);
          p.params.connectivity = picked[1];
          p.params.heterogeneity = picked[2];
          p.params.mean_gateway_bw = picked[3];
          p.params.mean_backbone_bw = picked[4];
          p.params.mean_max_connections = picked[5];
          p.params.cluster_speed = picked[6];
          p.params.mean_latency = picked[7];
          p.params.num_transit_routers = static_cast<int>(picked[8]);
          p.params.ensure_connected = connected;
          if (!label.empty()) {
            p.label = cells == 1 ? label : label + ":" + varying;
            claim_label(platform_labels, p.label, line_no);
          } else {
            // Derived label: the varying keys when the line is an axis,
            // otherwise just the cluster count.
            std::string derived =
                varying.empty()
                    ? "gen:K=" + std::to_string(p.params.num_clusters)
                    : "gen:" + varying;
            p.label = dedupe(platform_labels, std::move(derived));
          }
          spec.platforms.push_back(std::move(p));
        }
      } else {
        fail(line_no, "unknown platform kind '" + kind +
                          "' (expected file|generate|grid)");
      }
    } else if (keyword == "workload") {
      std::string kind;
      if (!(iss >> kind)) fail(line_no, "expected none|batch|poisson|onoff|trace");
      LineOptions opt(iss, line_no);
      WorkloadSource s;
      std::string derived;
      if (kind == "none") {
        s.kind = WorkloadSource::Kind::None;
        derived = "none";
      } else if (kind == "batch") {
        s.kind = WorkloadSource::Kind::Batch;
        s.poisson.count = opt.get_int("count", 10);
        s.poisson.mean_load = opt.get_double("mean-load", 500);
        s.poisson.load_spread = opt.get_double("load-spread", 0.5);
        s.poisson.payoff_spread = opt.get_double("payoff-spread", 0.5);
        if (s.poisson.count < 1) fail(line_no, "batch count must be >= 1");
        derived = "batch";
      } else if (kind == "poisson") {
        s.kind = WorkloadSource::Kind::Poisson;
        s.poisson.count = opt.get_int("arrivals", 1000);
        s.poisson.rate = opt.get_double("rate", 1.0);
        s.poisson.mean_load = opt.get_double("mean-load", 500);
        s.poisson.load_spread = opt.get_double("load-spread", 0.5);
        s.poisson.payoff_spread = opt.get_double("payoff-spread", 0.5);
        if (s.poisson.count < 1) fail(line_no, "poisson arrivals must be >= 1");
        if (s.poisson.rate <= 0) fail(line_no, "poisson rate must be positive");
        derived = "poisson";
      } else if (kind == "onoff") {
        s.kind = WorkloadSource::Kind::OnOff;
        s.onoff.count = opt.get_int("arrivals", 1000);
        s.onoff.burst_rate = opt.get_double("burst-rate", 4.0);
        s.onoff.mean_on = opt.get_double("mean-on", 25);
        s.onoff.mean_off = opt.get_double("mean-off", 75);
        s.onoff.mean_load = opt.get_double("mean-load", 500);
        s.onoff.load_spread = opt.get_double("load-spread", 0.5);
        s.onoff.payoff_spread = opt.get_double("payoff-spread", 0.5);
        if (s.onoff.count < 1) fail(line_no, "onoff arrivals must be >= 1");
        if (s.onoff.burst_rate <= 0 || s.onoff.mean_on <= 0 || s.onoff.mean_off <= 0) {
          fail(line_no, "onoff rates and window means must be positive");
        }
        derived = "onoff";
      } else if (kind == "trace") {
        s.kind = WorkloadSource::Kind::Trace;
        s.path = opt.get_string("path", "");
        if (s.path.empty()) fail(line_no, "workload trace: missing path=");
        derived = "trace:" + basename_of(s.path);
      } else {
        fail(line_no, "unknown workload kind '" + kind +
                          "' (expected none|batch|poisson|onoff|trace)");
      }
      s.label = opt.get_string("label", "");
      if (s.label.empty()) s.label = dedupe(scenario_labels, std::move(derived));
      else claim_label(scenario_labels, s.label, line_no);
      opt.reject_unknown();
      spec.scenarios.push_back(std::move(s));
    } else if (keyword == "loads") {
      // The multi-load axis: count x mix x objective expand into one
      // scenario cell per combination (like platform generate lists).
      LineOptions opt(iss, line_no);
      const std::vector<double> counts = opt.get_double_list("count", 4);
      const std::vector<std::string> mixes =
          opt.get_string_list("mix", "uniform");
      const std::vector<std::string> objectives =
          opt.get_string_list("objective", "sum");
      const double weight_spread = opt.get_double("weight-spread", 0.5);
      const double ratio_spread = opt.get_double("ratio-spread", 0.0);
      const double cap_factor = opt.get_double("cap", 0.0);
      const std::string label = opt.get_string("label", "");
      opt.reject_unknown();
      const std::size_t cells = counts.size() * mixes.size() * objectives.size();
      for (const double cd : counts) {
        if (cd != std::floor(cd) || cd < 1) {
          fail(line_no, "loads count must be positive integers");
        }
        for (const std::string& mix : mixes) {
          if (mix != "uniform" && mix != "hotspot") {
            fail(line_no, "unknown loads mix '" + mix +
                              "' (expected uniform|hotspot)");
          }
          for (const std::string& obj : objectives) {
            WorkloadSource s;
            s.kind = WorkloadSource::Kind::Loads;
            s.load_count = static_cast<int>(cd);
            s.load_mix = mix;
            if (!core::parse_multi_objective(obj, s.multi_objective)) {
              fail(line_no, "unknown loads objective '" + obj +
                                "' (expected sum|maxmin|pf)");
            }
            s.weight_spread = weight_spread;
            s.ratio_spread = ratio_spread;
            s.cap_factor = cap_factor;
            std::string varying;
            const auto vary = [&](bool axis, const std::string& part) {
              if (!axis) return;
              if (!varying.empty()) varying += ',';
              varying += part;
            };
            vary(counts.size() > 1, "N=" + std::to_string(s.load_count));
            vary(mixes.size() > 1, "mix=" + mix);
            vary(objectives.size() > 1, "obj=" + obj);
            if (!label.empty()) {
              s.label = cells == 1 ? label : label + ":" + varying;
              claim_label(scenario_labels, s.label, line_no);
            } else {
              std::string derived =
                  "loads:" +
                  (varying.empty() ? "N=" + std::to_string(s.load_count)
                                   : varying);
              s.label = dedupe(scenario_labels, std::move(derived));
            }
            spec.scenarios.push_back(std::move(s));
          }
        }
      }
    } else if (keyword == "dynamics") {
      if (spec.scenarios.empty()) {
        fail(line_no, "dynamics line with no preceding workload line");
      }
      WorkloadSource& s = spec.scenarios.back();
      if (!s.stream()) {
        fail(line_no,
             "dynamics requires a stream workload (the preceding workload "
             "line replays no timeline)");
      }
      if (s.dyn != WorkloadSource::DynKind::None) {
        fail(line_no, "duplicate dynamics line for workload '" + s.label + "'");
      }
      std::string kind;
      if (!(iss >> kind)) fail(line_no, "expected scenario|trace");
      LineOptions opt(iss, line_no);
      if (kind == "scenario") {
        s.dyn = WorkloadSource::DynKind::Scenario;
        s.event_rate = opt.get_double("event-rate", 0.02);
        s.severity = opt.get_double("severity", 0.5);
        s.horizon = opt.get_double("horizon", 0.0);
        if (s.event_rate <= 0) fail(line_no, "event-rate must be positive");
        if (s.severity < 0 || s.severity > 1) fail(line_no, "severity out of [0, 1]");
        if (s.horizon < 0) fail(line_no, "horizon must be >= 0 (0 = auto)");
      } else if (kind == "trace") {
        s.dyn = WorkloadSource::DynKind::Trace;
        s.events_path = opt.get_string("path", "");
        if (s.events_path.empty()) fail(line_no, "dynamics trace: missing path=");
      } else {
        fail(line_no, "unknown dynamics kind '" + kind +
                          "' (expected scenario|trace)");
      }
      opt.reject_unknown();
    } else {
      fail(line_no, "unknown keyword '" + keyword + "'");
    }
  }

  require(have_header, "read_campaign: bad header (expected 'dls-campaign 1')");
  if (spec.methods.empty()) {
    spec.methods = {Method::G, Method::Lpr, Method::Lprg};
  }
  if (spec.objectives.empty()) spec.objectives = {core::Objective::MaxMin};
  if (spec.warm.empty()) spec.warm = {online::WarmPolicy::Auto};
  if (spec.exhaust.empty()) spec.exhaust = {core::LocalExhaustPolicy::TakeRemaining};
  if (spec.scenarios.empty()) {
    WorkloadSource none;
    none.label = "none";
    spec.scenarios.push_back(std::move(none));
  }
  require(!spec.platforms.empty(),
          "read_campaign: spec declares no platform axis values");

  // Cross-line contradictions get the best line number we have.
  const bool has_stream =
      std::any_of(spec.scenarios.begin(), spec.scenarios.end(),
                  [](const WorkloadSource& s) { return s.stream(); });
  if (has_stream && std::find(spec.methods.begin(), spec.methods.end(),
                              Method::Lprr) != spec.methods.end()) {
    fail(method_line,
         "method lprr is offline-only and cannot run a stream workload");
  }
  spec.validate();
  return spec;
}

std::string to_text(const ScenarioSpec& spec) {
  std::ostringstream oss;
  write_campaign(spec, oss);
  return oss.str();
}

ScenarioSpec from_text(const std::string& text) {
  std::istringstream iss(text);
  return read_campaign(iss);
}

ScenarioSpec read_campaign_file(const std::vector<std::string>& candidates) {
  require(!candidates.empty(), "read_campaign_file: no candidate paths");
  for (const std::string& path : candidates) {
    std::ifstream in(path);
    if (in) return read_campaign(in);
  }
  std::string tried;
  for (const std::string& path : candidates) {
    if (!tried.empty()) tried += ", ";
    tried += "'" + path + "'";
  }
  throw Error("read_campaign_file: cannot open any of " + tried);
}

}  // namespace dls::campaign
