#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

namespace dls::obs {

std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  char buf[64];
  // Integral values print as plain integers ("10", not "1e+01") so
  // counter-backed gauges and le bounds read naturally.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  // Shortest representation that round-trips: try increasing precision.
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

// name + optional labels + optional extra label, Prometheus-style.
std::string series_ref(const std::string& name, const std::string& labels,
                       const std::string& extra = "") {
  std::string out = name;
  if (!labels.empty() || !extra.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extra.empty()) out += ',';
    out += extra;
    out += '}';
  }
  return out;
}

}  // namespace

std::string to_prometheus(const RegistrySnapshot& snap) {
  std::string out;
  std::set<std::string> headered;
  for (const SeriesSnapshot& s : snap.series) {
    if (headered.insert(s.name).second) {
      out += "# HELP " + s.name + " " + s.help + "\n";
      out += "# TYPE " + s.name + " " + to_string(s.type) + "\n";
    }
    switch (s.type) {
      case MetricType::Counter:
        out += series_ref(s.name, s.labels) + " " + std::to_string(s.counter) + "\n";
        break;
      case MetricType::Gauge:
        out += series_ref(s.name, s.labels) + " " + format_double(s.gauge) + "\n";
        break;
      case MetricType::Histogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < s.buckets.size(); ++b) {
          cumulative += s.buckets[b];
          const std::string le =
              b < s.bounds.size() ? format_double(s.bounds[b]) : "+Inf";
          out += series_ref(s.name + "_bucket", s.labels, "le=\"" + le + "\"") +
                 " " + std::to_string(cumulative) + "\n";
        }
        out += series_ref(s.name + "_sum", s.labels) + " " + format_double(s.sum) + "\n";
        out += series_ref(s.name + "_count", s.labels) + " " +
               std::to_string(s.count) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace dls::obs
