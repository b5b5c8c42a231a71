// Pins of the simplex's load and unload paths: warm chains through one
// arena, on the multi-load rescheduler's slot models and on a small
// boxed model whose capsule statuses face bounds that turned infinite,
// must reproduce the committed file byte for byte. Each solve is pinned
// by its status, start kind, pivot counts, the objective as a C99 `%a`
// hex float, and FNV-1a hashes over the bits of x, the basis statuses
// and the duals. The slot chains (K=8 on the dense inverse, K=32 and
// K=64 on the hypersparse sparse LU) seat and release loads and run a
// re-pricing and an rhs-only capacity event, so the pins cover cold
// starts, whole capsule restores, basis repair and the composite bound
// phase 1.
//
// To re-record after an intended change of pivot paths:
//   DLS_UPDATE_GOLDEN=1 ./dls_tests --gtest_filter='LoadUnloadGolden.*'
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "lp/simplex.hpp"
#include "platform/generator.hpp"
#include "support/rng.hpp"

#ifndef DLS_SOURCE_DIR
#define DLS_SOURCE_DIR "."
#endif

namespace dls::lp {
namespace {

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  }
};

std::string hash_doubles(const std::vector<double>& v) {
  Fnv f;
  f.mix(v.size());
  for (const double d : v) f.mix(std::bit_cast<std::uint64_t>(d));
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(f.h));
  return buf;
}

std::string hash_basis(const Basis& b) {
  Fnv f;
  f.mix(b.variables.size());
  for (const BasisStatus s : b.variables) f.mix(static_cast<std::uint64_t>(s));
  f.mix(b.slacks.size());
  for (const BasisStatus s : b.slacks) f.mix(static_cast<std::uint64_t>(s));
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(f.h));
  return buf;
}

/// One line per solve: every output the load/unload paths shape.
std::string pin(const std::string& label, const Solution& s) {
  int nonzeros = 0;
  for (const double v : s.x) nonzeros += v != 0.0;
  std::ostringstream os;
  os << label << " status " << static_cast<int>(s.status) << " kind "
     << static_cast<int>(s.warm_kind) << " iters " << s.iterations << " p1 "
     << s.phase1_iterations << " factor " << static_cast<int>(s.factorization_used)
     << " obj " << hex(s.objective) << " nnz " << nonzeros << " x "
     << hash_doubles(s.x) << " basis " << hash_basis(s.basis) << " duals "
     << hash_doubles(s.duals) << "\n";
  return os.str();
}

/// A warm chain on the slot model of a K-cluster platform: clusters
/// hold one to three slots, a third of them idle, and each step moves
/// weights or capacities the way the rescheduler's events do.
std::string slot_chain(int k, std::uint64_t seed) {
  platform::GeneratorParams params;
  params.num_clusters = k;
  params.ensure_connected = true;
  Rng prng(seed);
  platform::Platform plat = platform::generate_platform(params, prng);

  core::LoadSet slots;
  for (int c = 0; c < k; ++c)
    for (int s = 0; s <= c % 3; ++s) {
      core::LoadSpec spec;
      spec.source = c;
      spec.weight = (c + s) % 3 == 0 ? 0.0 : 1.0 + 0.25 * ((c + 2 * s) % 5);
      slots.loads.push_back(spec);
    }
  core::SteadyStateProblem problem(plat, slots, core::Objective::Sum);
  core::SteadyStateProblem::ReducedModel reduced = problem.build_reduced();
  std::vector<double> weights = problem.loads().weights();

  const SimplexSolver solver;
  SolveArena arena;
  WarmState state;
  std::string out;
  const auto solve = [&](const std::string& label) {
    const Solution s = solver.solve(reduced.model, &state, &arena);
    EXPECT_EQ(s.status, SolveStatus::Optimal) << label;
    out += pin("K" + std::to_string(k) + " " + label, s);
  };
  const auto reweight = [&] {
    problem.set_load_weights(weights);
    problem.update_reduced_payoffs(reduced);
  };

  solve("cold");
  Rng rng(seed + 1);
  for (int step = 0; step < 6; ++step) {
    // Departures: release two seated slots.
    for (int d = 0; d < 2; ++d) {
      std::size_t j = rng.index(weights.size());
      while (weights[j] == 0.0) j = (j + 1) % weights.size();
      weights[j] = 0.0;
    }
    reweight();
    solve("depart" + std::to_string(step));
    // Arrivals: seat two idle slots.
    for (int a = 0; a < 2; ++a) {
      std::size_t j = rng.index(weights.size());
      while (weights[j] != 0.0) j = (j + 1) % weights.size();
      weights[j] = rng.uniform(0.5, 3.0);
    }
    reweight();
    solve("arrive" + std::to_string(step));
    if (step == 2) {
      // Re-pricing capacity event: a routed link loses bandwidth, so
      // the (7d) coefficients move and the capsule is repaired.
      platform::LinkId li = 0;
      while (plat.num_routes_through(li) == 0) ++li;
      plat.set_link_bandwidth(li, plat.link(li).bw * 0.45);
      problem.update_reduced_capacities(reduced, problem.refresh_route_bandwidths());
      solve("link_cut");
    }
    if (step == 4) {
      // Rhs-only capacity event: the capsule restores whole.
      plat.set_cluster_gateway_bw(1, plat.cluster(1).gateway_bw * 0.6);
      problem.update_reduced_capacities(reduced, problem.refresh_route_bandwidths());
      solve("gateway_cut");
    }
  }
  return out;
}

/// A boxed maximization whose capsule is restored after one resting
/// bound went infinite: an AtUpper status facing ub = +inf and an
/// AtLower status facing lb = -inf take place_status's sanitizing path.
/// Every other variable stays boxed, so each variant stays bounded.
std::string infinite_bound_chain(Factorization f) {
  Rng rng(29);
  Model m;
  m.set_sense(Sense::Maximize);
  const int vars = 40, rows = 20;
  std::vector<std::vector<Term>> row_terms(rows);
  for (int j = 0; j < vars; ++j) {
    m.add_variable(0.0, rng.uniform(1.0, 4.0), rng.uniform(0.5, 3.0));
    row_terms[static_cast<std::size_t>(j % rows)].push_back({j, rng.uniform(0.5, 2.0)});
    row_terms[rng.index(rows)].push_back({j, rng.uniform(0.2, 1.5)});
  }
  for (int c = 0; c < rows; ++c)
    m.add_constraint(std::move(row_terms[static_cast<std::size_t>(c)]),
                     Relation::LessEqual, rng.uniform(3.0, 9.0));

  SimplexOptions options;
  options.factorization = f;
  const SimplexSolver solver(options);
  SolveArena arena;
  WarmState state;
  std::string out;
  const std::string tag = f == Factorization::DenseInverse ? "dense " : "sparse ";
  const auto solve = [&](const std::string& label) {
    const Solution s = solver.solve(m, &state, &arena);
    EXPECT_EQ(s.status, SolveStatus::Optimal) << label;
    out += pin(tag + label, s);
    return s;
  };

  const Solution base = solve("base");
  int upper = -1, lower = -1;
  for (int j = 0; j < vars; ++j) {
    if (upper < 0 && base.basis.variables[j] == BasisStatus::AtUpper) upper = j;
    if (lower < 0 && base.basis.variables[j] == BasisStatus::AtLower) lower = j;
  }
  EXPECT_GE(upper, 0);
  EXPECT_GE(lower, 0);
  if (upper < 0 || lower < 0) return out;
  const double ub = m.upper_bound(upper);
  m.set_bounds(upper, 0.0, kInf);
  const Solution lifted = solve("upper_to_inf");
  EXPECT_EQ(lifted.warm_kind, WarmKind::Capsule);
  m.set_bounds(upper, 0.0, ub);
  solve("upper_restored");
  m.set_bounds(lower, -kInf, m.upper_bound(lower));
  const Solution dropped = solve("lower_to_inf");
  EXPECT_EQ(dropped.warm_kind, WarmKind::Capsule);
  return out;
}

std::string pins() {
  std::string out;
  out += slot_chain(8, 11);
  out += slot_chain(32, 12);
  out += slot_chain(64, 13);
  out += infinite_bound_chain(Factorization::SparseLu);
  out += infinite_bound_chain(Factorization::DenseInverse);
  return out;
}

TEST(LoadUnloadGolden, WarmChainsMatchCommittedPin) {
  const std::string got = pins();
  const std::string path =
      std::string(DLS_SOURCE_DIR) + "/tests/lp/data/load_unload_golden.txt";
  if (std::getenv("DLS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::trunc) << got;
    GTEST_SKIP() << "re-recorded " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str());
}

}  // namespace
}  // namespace dls::lp
