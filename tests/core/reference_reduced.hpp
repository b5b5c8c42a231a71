// The per-row build_reduced loops, kept as the oracle of
// SteadyStateProblem::build_reduced: the production builder emits the
// speed and gateway rows from one ascending sweep over the load-routes
// and must produce this one's model bit for bit (rows, their order,
// bounds, costs and the row/column index maps). Also the bitwise model
// comparison the reduced-model tests share.
#pragma once

#include <vector>

#include "core/problem.hpp"

namespace dls::core::testing {

/// build_reduced as it was written row by row: each (7b) row gathers
/// its load-routes load by load, each (7c) row destination by
/// destination (outbound, then inbound), and lp::Model sorts the rows.
SteadyStateProblem::ReducedModel reference_build_reduced(
    const SteadyStateProblem& problem,
    const std::vector<SteadyStateProblem::BetaFixing>& fixings = {});

/// Bitwise equality of two models: shape, fingerprint, sense, every
/// bound, cost, relation, rhs and row term.
void expect_same_model(const lp::Model& got, const lp::Model& want);

/// expect_same_model plus the index maps of a reduced model.
void expect_same_reduced(const SteadyStateProblem::ReducedModel& got,
                         const SteadyStateProblem::ReducedModel& want);

}  // namespace dls::core::testing
