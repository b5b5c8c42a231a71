// Exposition of a Registry snapshot in the Prometheus text format
// served at `GET /metrics`, plus the number and string helpers the JSON
// emitters share. Series are written in registration order, so output
// is deterministic for a deterministic workload — serve_smoke diffs the
// counter lines of two replays byte-for-byte.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace dls::obs {

/// Prometheus text exposition (# HELP / # TYPE once per family, then
/// one line per series; histograms expand to _bucket/_sum/_count).
[[nodiscard]] std::string to_prometheus(const RegistrySnapshot& snap);

/// Shortest round-trippable rendering of a double ("0.25", "1e-05");
/// shared by the exporters and the bench JSON emitters.
[[nodiscard]] std::string format_double(double v);

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters).
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace dls::obs
