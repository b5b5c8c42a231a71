#include "core/loads.hpp"

#include <cmath>

namespace dls::core {

LoadSet LoadSet::from_payoffs(const std::vector<double>& payoffs) {
  LoadSet set;
  set.loads.reserve(payoffs.size());
  for (std::size_t k = 0; k < payoffs.size(); ++k) {
    LoadSpec load;
    load.source = static_cast<int>(k);
    load.weight = payoffs[k];
    set.loads.push_back(std::move(load));
  }
  return set;
}

bool LoadSet::canonical(int num_clusters) const {
  if (size() != num_clusters) return false;
  for (int j = 0; j < size(); ++j) {
    const LoadSpec& load = loads[j];
    if (load.source != j || load.data_ratio != 1.0 ||
        load.cap != std::numeric_limits<double>::infinity())
      return false;
  }
  return true;
}

void LoadSet::validate(int num_clusters) const {
  require(!loads.empty(), "LoadSet: at least one load required");
  bool any_positive = false;
  for (const LoadSpec& load : loads) {
    require(load.source >= 0 && load.source < num_clusters,
            "LoadSet: load source cluster out of range");
    require(load.weight >= 0.0 && std::isfinite(load.weight),
            "LoadSet: load weights must be finite and >= 0");
    require(load.data_ratio > 0.0 && std::isfinite(load.data_ratio),
            "LoadSet: data_ratio must be finite and positive");
    require(load.cap > 0.0, "LoadSet: throughput cap must be positive");
    any_positive |= load.weight > 0.0;
  }
  require(any_positive, "LoadSet: at least one positive-weight load required");
}

std::vector<double> LoadSet::weights() const {
  std::vector<double> w;
  w.reserve(loads.size());
  for (const LoadSpec& load : loads) w.push_back(load.weight);
  return w;
}

std::string to_string(MultiObjective o) {
  switch (o) {
    case MultiObjective::WeightedSum: return "sum";
    case MultiObjective::MaxMin: return "maxmin";
    case MultiObjective::PropFair: return "pf";
  }
  return "?";
}

bool parse_multi_objective(const std::string& text, MultiObjective& out) {
  if (text == "sum") {
    out = MultiObjective::WeightedSum;
  } else if (text == "maxmin") {
    out = MultiObjective::MaxMin;
  } else if (text == "pf") {
    out = MultiObjective::PropFair;
  } else {
    return false;
  }
  return true;
}

}  // namespace dls::core
