// Load sets: the demand side of the steady-state problem, split out of
// the platform description (ISSUE 8). A LoadSpec describes one divisible
// load: the cluster holding its input data, its objective weight, how
// many bytes each unit of load ships relative to the paper's baseline
// (data_ratio scales the gateway and max-connect rows), and an optional
// Amdahl-like cap on its aggregate throughput (the load stops scaling
// past its sequential fraction no matter how much capacity is thrown at
// it — Cao/Wu/Robertazzi's resource-sharing variant).
//
// The paper's original formulation is the *canonical* load set: exactly
// one load per cluster, load j sourced at cluster j, weight = payoff_j,
// data_ratio 1, no cap. SteadyStateProblem emits byte-identical LPs for
// canonical sets, which is what keeps the single-load pivot-sequence
// oracles valid (see problem.hpp).
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace dls::core {

struct LoadSpec {
  int source = 0;       ///< cluster holding this load's input data
  double weight = 1.0;  ///< objective weight; 0 = load not present
  /// Bytes shipped per unit of load, relative to the paper's baseline:
  /// gateway traffic and per-connection bandwidth use scale by this.
  double data_ratio = 1.0;
  /// Amdahl-like aggregate throughput cap (sum over destinations);
  /// +inf = perfectly divisible, no sequential fraction.
  double cap = std::numeric_limits<double>::infinity();
  std::string name;  ///< optional, for diagnostics only
};

struct LoadSet {
  std::vector<LoadSpec> loads;

  /// The canonical set for a payoff vector: one load per cluster, load j
  /// sourced at cluster j with weight payoffs[j], ratio 1, no cap.
  [[nodiscard]] static LoadSet from_payoffs(const std::vector<double>& payoffs);

  [[nodiscard]] int size() const { return static_cast<int>(loads.size()); }

  /// True when this set has the paper's one-load-per-cluster shape (see
  /// header comment); weights are free. Canonical sets are exactly the
  /// ones whose LP layout matches the original single-load builder.
  [[nodiscard]] bool canonical(int num_clusters) const;

  /// Throws dls::Error on out-of-range sources, negative/non-finite
  /// weights, non-positive ratios or caps, or no positive-weight load.
  void validate(int num_clusters) const;

  [[nodiscard]] std::vector<double> weights() const;
};

/// Multi-load objectives (solve_loads in multi_solve.hpp). WeightedSum
/// and MaxMin are single LPs; PropFair runs a Dinkelbach-style iteration
/// of reweighted WeightedSum LPs toward max sum_j w_j log(throughput_j).
enum class MultiObjective {
  WeightedSum,
  MaxMin,
  PropFair,
};

[[nodiscard]] std::string to_string(MultiObjective o);
/// Accepts "sum", "maxmin", "pf"; returns false on anything else.
[[nodiscard]] bool parse_multi_objective(const std::string& text,
                                         MultiObjective& out);

}  // namespace dls::core
