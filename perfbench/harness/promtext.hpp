// Reading the daemon's Prometheus text exposition (`GET /metrics`) and
// the in-process registry the same way, so per-layer counters come
// from before/after deltas around a measured interval.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One scrape: series key ("name" or "name{labels}") -> value. Comment
/// lines are skipped; a malformed sample line is counted, not fatal.
struct Exposition {
  std::map<std::string, double> series;
  int malformed = 0;

  /// Sum over every series of family `name` whose labels contain
  /// `label_filter` (empty = all). Histogram families are addressed by
  /// their suffixed names ("x_count", "x_sum").
  [[nodiscard]] double sum(const std::string& name,
                           const std::string& label_filter = "") const;

  /// Cumulative bucket counts of histogram `name` as (le, count) pairs,
  /// ascending, +Inf last.
  [[nodiscard]] std::vector<std::pair<double, double>> buckets(
      const std::string& name) const;
};

[[nodiscard]] Exposition parse_exposition(std::string_view text);

/// Counter growth of family `name` between two scrapes.
[[nodiscard]] double delta(const Exposition& before, const Exposition& after,
                           const std::string& name,
                           const std::string& label_filter = "");

/// Upper bound of the bucket holding quantile q of the observations
/// histogram `name` gained between two scrapes; 0 when it gained none.
/// The last finite bound stands in for +Inf.
[[nodiscard]] double bucket_quantile(const Exposition& before,
                                     const Exposition& after,
                                     const std::string& name, double q);

/// The in-process obs registry, rendered and parsed like a scrape.
[[nodiscard]] Exposition scrape_self();

/// The lp.* per-layer metrics from dls_lp_* growth between two scrapes
/// (the daemon's /metrics or the in-process registry).
void add_lp_metrics(Result& res, const Exposition& before, const Exposition& after);

/// obs.render_us (median in-process registry snapshot plus Prometheus
/// render) and obs.metrics_bytes (the rendered size, unless the caller
/// already measured it on a live scrape).
void add_render_metrics(Result& res);

}  // namespace perfbench
