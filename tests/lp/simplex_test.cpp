// Deterministic simplex correctness tests on textbook and corner-case LPs.
#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/model.hpp"

namespace dls::lp {
namespace {

constexpr double kTol = 1e-6;

TEST(Simplex, TextbookMaximize) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
  // Optimum (2, 6) -> 36 (Dantzig's classic).
  Model m;
  const int x = m.add_variable(0, kInf, 3.0);
  const int y = m.add_variable(0, kInf, 5.0);
  m.set_sense(Sense::Maximize);
  m.add_constraint({{x, 1.0}}, Relation::LessEqual, 4.0);
  m.add_constraint({{y, 2.0}}, Relation::LessEqual, 12.0);
  m.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::LessEqual, 18.0);

  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 36.0, kTol);
  EXPECT_NEAR(s.x[x], 2.0, kTol);
  EXPECT_NEAR(s.x[y], 6.0, kTol);
}

TEST(Simplex, TextbookMinimizeWithGreaterEqual) {
  // min 0.12x + 0.15y s.t. 60x + 60y >= 300, 12x + 6y >= 36, 10x + 30y >= 90.
  // Optimum (3, 2) -> 0.66 (diet problem).
  Model m;
  const int x = m.add_variable(0, kInf, 0.12);
  const int y = m.add_variable(0, kInf, 0.15);
  m.add_constraint({{x, 60.0}, {y, 60.0}}, Relation::GreaterEqual, 300.0);
  m.add_constraint({{x, 12.0}, {y, 6.0}}, Relation::GreaterEqual, 36.0);
  m.add_constraint({{x, 10.0}, {y, 30.0}}, Relation::GreaterEqual, 90.0);

  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 0.66, kTol);
  EXPECT_NEAR(s.x[x], 3.0, kTol);
  EXPECT_NEAR(s.x[y], 2.0, kTol);
  EXPECT_GT(s.phase1_iterations, 0);  // >= rows force a phase-1 start
}

TEST(Simplex, EqualityConstraints) {
  // max x + 2y s.t. x + y = 10, x - y = 2 -> unique point (6, 4), obj 14.
  Model m;
  const int x = m.add_variable(0, kInf, 1.0);
  const int y = m.add_variable(0, kInf, 2.0);
  m.set_sense(Sense::Maximize);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 10.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::Equal, 2.0);

  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[x], 6.0, kTol);
  EXPECT_NEAR(s.x[y], 4.0, kTol);
  EXPECT_NEAR(s.objective, 14.0, kTol);
}

TEST(Simplex, BoundedVariablesBoundFlips) {
  // max x + y with 1 <= x <= 3, 0 <= y <= 2, x + y <= 4. Optimum 4 along
  // the x+y=4 edge; both variable bounds participate.
  Model m;
  const int x = m.add_variable(1, 3, 1.0);
  const int y = m.add_variable(0, 2, 1.0);
  m.set_sense(Sense::Maximize);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEqual, 4.0);

  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 4.0, kTol);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y with x >= -5, y >= -3, x + y >= -6 -> optimum -6.
  Model m;
  const int x = m.add_variable(-5, kInf, 1.0);
  const int y = m.add_variable(-3, kInf, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::GreaterEqual, -6.0);

  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -6.0, kTol);
}

TEST(Simplex, FreeVariable) {
  // min y s.t. y >= x - 2, y >= -x (x free) -> min at x = 1, y = -1.
  Model m;
  const int x = m.add_variable(-kInf, kInf, 0.0);
  const int y = m.add_variable(-kInf, kInf, 1.0);
  m.add_constraint({{y, 1.0}, {x, -1.0}}, Relation::GreaterEqual, -2.0);
  m.add_constraint({{y, 1.0}, {x, 1.0}}, Relation::GreaterEqual, 0.0);

  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -1.0, kTol);
  EXPECT_NEAR(s.x[x], 1.0, kTol);
}

TEST(Simplex, DetectsInfeasible) {
  Model m;
  const int x = m.add_variable(0, kInf, 1.0);
  m.add_constraint({{x, 1.0}}, Relation::LessEqual, 1.0);
  m.add_constraint({{x, 1.0}}, Relation::GreaterEqual, 2.0);
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsInfeasibleEqualities) {
  Model m;
  const int x = m.add_variable(0, kInf, 0.0);
  const int y = m.add_variable(0, kInf, 0.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 2.0);
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m;
  const int x = m.add_variable(0, kInf, 1.0);
  const int y = m.add_variable(0, kInf, 1.0);
  m.set_sense(Sense::Maximize);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::LessEqual, 1.0);
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::Unbounded);
}

TEST(Simplex, UnconstrainedModel) {
  Model m;
  const int x = m.add_variable(-1, 5, 2.0);
  const int y = m.add_variable(-2, 3, -1.0);
  m.set_sense(Sense::Maximize);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[x], 5.0, kTol);
  EXPECT_NEAR(s.x[y], -2.0, kTol);
  EXPECT_NEAR(s.objective, 12.0, kTol);
}

TEST(Simplex, UnconstrainedUnbounded) {
  Model m;
  m.add_variable(0, kInf, 1.0);
  m.set_sense(Sense::Maximize);
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::Unbounded);
}

TEST(Simplex, FixedVariables) {
  // Fixed variable participates in rows but never pivots.
  Model m;
  const int x = m.add_variable(2, 2, 1.0);
  const int y = m.add_variable(0, kInf, 1.0);
  m.set_sense(Sense::Maximize);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEqual, 5.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.x[x], 2.0, kTol);
  EXPECT_NEAR(s.x[y], 3.0, kTol);
}

TEST(Simplex, BealeCyclingExample) {
  // Beale's classical cycling instance; must terminate via anti-cycling.
  // min -0.75w + 150x - 0.02y + 6z
  // s.t. 0.25w - 60x - 0.04y + 9z <= 0
  //      0.5w  - 90x - 0.02y + 3z <= 0
  //      y <= 1;  all vars >= 0.  Optimum -0.05 at y = 1, w = 0.05/0....
  Model m;
  const int w = m.add_variable(0, kInf, -0.75);
  const int x = m.add_variable(0, kInf, 150.0);
  const int y = m.add_variable(0, kInf, -0.02);
  const int z = m.add_variable(0, kInf, 6.0);
  m.add_constraint({{w, 0.25}, {x, -60.0}, {y, -0.04}, {z, 9.0}}, Relation::LessEqual, 0.0);
  m.add_constraint({{w, 0.5}, {x, -90.0}, {y, -0.02}, {z, 3.0}}, Relation::LessEqual, 0.0);
  m.add_constraint({{y, 1.0}}, Relation::LessEqual, 1.0);

  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -0.05, kTol);
}

TEST(Simplex, DegenerateKleeMintyLike) {
  // Klee-Minty cube in 5 dims: worst case for Dantzig pricing but must
  // still terminate at 2^5-ish objective.
  const int n = 5;
  Model m;
  std::vector<int> vars(n);
  for (int j = 0; j < n; ++j)
    vars[j] = m.add_variable(0, kInf, std::pow(2.0, n - 1 - j));
  m.set_sense(Sense::Maximize);
  for (int i = 0; i < n; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < i; ++j) terms.push_back({vars[j], std::pow(2.0, i - j + 1)});
    terms.push_back({vars[i], 1.0});
    m.add_constraint(terms, Relation::LessEqual, std::pow(5.0, i + 1));
  }
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, std::pow(5.0, n), 1e-4);
}

TEST(Simplex, DualsShadowPricesMaximize) {
  // max 3x + 5y (first test): duals are (0, 1.5, 1).
  Model m;
  const int x = m.add_variable(0, kInf, 3.0);
  const int y = m.add_variable(0, kInf, 5.0);
  m.set_sense(Sense::Maximize);
  m.add_constraint({{x, 1.0}}, Relation::LessEqual, 4.0);
  m.add_constraint({{y, 2.0}}, Relation::LessEqual, 12.0);
  m.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::LessEqual, 18.0);

  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  ASSERT_EQ(s.duals.size(), 3u);
  EXPECT_NEAR(s.duals[0], 0.0, kTol);
  EXPECT_NEAR(s.duals[1], 1.5, kTol);
  EXPECT_NEAR(s.duals[2], 1.0, kTol);
}

TEST(Simplex, ObjectiveConstantCarriesThrough) {
  Model m;
  const int x = m.add_variable(0, 1, 1.0);
  m.set_sense(Sense::Maximize);
  m.set_objective_constant(10.0);
  m.add_constraint({{x, 1.0}}, Relation::LessEqual, 1.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 11.0, kTol);
}

TEST(Simplex, RedundantRowsAreHarmless) {
  Model m;
  const int x = m.add_variable(0, kInf, 1.0);
  m.set_sense(Sense::Maximize);
  for (int i = 0; i < 5; ++i) m.add_constraint({{x, 1.0}}, Relation::LessEqual, 7.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 7.0, kTol);
}

TEST(Simplex, ZeroRhsEqualityStart) {
  // Equality rows with rhs 0 are feasible at the zero start: no phase 1.
  Model m;
  const int x = m.add_variable(0, kInf, 1.0);
  const int y = m.add_variable(0, kInf, -1.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::Equal, 0.0);
  m.add_constraint({{x, 1.0}}, Relation::LessEqual, 3.0);
  m.set_sense(Sense::Maximize);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_EQ(s.phase1_iterations, 0);
  EXPECT_NEAR(s.objective, 0.0, kTol);
}

}  // namespace
}  // namespace dls::lp
