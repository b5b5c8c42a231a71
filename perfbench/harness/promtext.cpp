#include "promtext.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "support/timer.hpp"

namespace perfbench {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

/// Splits "name{labels}" into its parts (labels without braces).
void split_key(const std::string& key, std::string& name, std::string& labels) {
  const std::size_t brace = key.find('{');
  if (brace == std::string::npos) {
    name = key;
    labels.clear();
    return;
  }
  name = key.substr(0, brace);
  labels = key.substr(brace + 1, key.size() - brace - 2);
}

}  // namespace

Exposition parse_exposition(std::string_view text) {
  Exposition out;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    std::string_view line =
        trim(text.substr(0, eol == std::string_view::npos ? text.size() : eol));
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    if (line.empty() || line.front() == '#') continue;
    // The value follows the key; label values never hold spaces here,
    // but a closing brace marks the key's end when labels are present.
    const std::size_t close = line.find('}');
    const std::size_t space =
        line.find(' ', close == std::string_view::npos ? 0 : close);
    if (space == std::string_view::npos) {
      ++out.malformed;
      continue;
    }
    const std::string value(trim(line.substr(space + 1)));
    char* end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (value == "+Inf") v = std::numeric_limits<double>::infinity();
    else if (end == value.c_str() || *end != '\0') {
      ++out.malformed;
      continue;
    }
    out.series[std::string(line.substr(0, space))] = v;
  }
  return out;
}

double Exposition::sum(const std::string& name,
                       const std::string& label_filter) const {
  double total = 0.0;
  std::string family, labels;
  for (auto it = series.lower_bound(name); it != series.end(); ++it) {
    if (it->first.compare(0, name.size(), name) != 0) break;
    split_key(it->first, family, labels);
    if (family != name) continue;
    if (!label_filter.empty() && labels.find(label_filter) == std::string::npos)
      continue;
    total += it->second;
  }
  return total;
}

std::vector<std::pair<double, double>> Exposition::buckets(
    const std::string& name) const {
  std::vector<std::pair<double, double>> out;
  const std::string family = name + "_bucket";
  std::string fam, labels;
  for (auto it = series.lower_bound(family); it != series.end(); ++it) {
    if (it->first.compare(0, family.size(), family) != 0) break;
    split_key(it->first, fam, labels);
    const std::size_t le = labels.find("le=\"");
    if (fam != family || le == std::string::npos) continue;
    const std::string bound = labels.substr(le + 4, labels.find('"', le + 4) - le - 4);
    const double b = bound == "+Inf" ? std::numeric_limits<double>::infinity()
                                     : std::strtod(bound.c_str(), nullptr);
    out.emplace_back(b, it->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double delta(const Exposition& before, const Exposition& after,
             const std::string& name, const std::string& label_filter) {
  return after.sum(name, label_filter) - before.sum(name, label_filter);
}

double bucket_quantile(const Exposition& before, const Exposition& after,
                       const std::string& name, double q) {
  const auto b0 = before.buckets(name);
  const auto b1 = after.buckets(name);
  if (b1.empty()) return 0.0;
  const double total = b1.back().second - (b0.empty() ? 0.0 : b0.back().second);
  if (total <= 0.0) return 0.0;
  double last_finite = 0.0;
  for (std::size_t i = 0; i < b1.size(); ++i) {
    const double gained = b1[i].second - (i < b0.size() ? b0[i].second : 0.0);
    if (std::isfinite(b1[i].first)) last_finite = b1[i].first;
    if (gained >= q * total) return last_finite;
  }
  return last_finite;
}

Exposition scrape_self() {
  return parse_exposition(dls::obs::to_prometheus(dls::obs::registry().snapshot()));
}

void add_lp_metrics(Result& res, const Exposition& before, const Exposition& after) {
  const auto d = [&](const std::string& name) { return delta(before, after, name); };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double solves = d("dls_lp_solves_total");
  const double pivots = d("dls_lp_pivots_total");
  const double seconds = d("dls_lp_solve_seconds_sum");
  res.metrics["lp.solves"] = solves;
  res.metrics["lp.solve_s"] = seconds;
  res.metrics["lp.pivots_per_solve"] = ratio(pivots, solves);
  res.metrics["lp.us_per_pivot"] = ratio(seconds * 1e6, pivots);
  res.metrics["lp.refactor_per_solve"] =
      ratio(d("dls_lp_refactorizations_total"), solves);
  for (const std::string dir : {"ftran", "btran"}) {
    const std::string reach = "dls_lp_" + dir + "_reach_fraction";
    res.metrics["lp." + dir + "_reach_p50"] =
        bucket_quantile(before, after, reach, 0.5);
    res.metrics["lp." + dir + "_fallback_frac"] =
        ratio(d("dls_lp_" + dir + "_fallbacks_total"), d(reach + "_count"));
  }
}

void add_render_metrics(Result& res) {
  std::vector<double> us;
  std::size_t bytes = 0;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t t0 = dls::now_ns();
    const std::string text = dls::obs::to_prometheus(dls::obs::registry().snapshot());
    us.push_back(static_cast<double>(dls::now_ns() - t0) * 1e-3);
    bytes = text.size();
  }
  res.metrics["obs.render_us"] = median(us);
  res.metrics.emplace("obs.metrics_bytes", static_cast<double>(bytes));
}

}  // namespace perfbench
