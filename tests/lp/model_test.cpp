#include "lp/model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/error.hpp"

namespace dls::lp {
namespace {

TEST(Model, AddVariableReturnsSequentialIndices) {
  Model m;
  EXPECT_EQ(m.add_variable(0, 1, 2.0), 0);
  EXPECT_EQ(m.add_variable(0, kInf, -1.0), 1);
  EXPECT_EQ(m.num_variables(), 2);
  EXPECT_EQ(m.lower_bound(1), 0.0);
  EXPECT_EQ(m.upper_bound(0), 1.0);
  EXPECT_EQ(m.objective_coef(0), 2.0);
}

TEST(Model, RejectsInvalidVariable) {
  Model m;
  EXPECT_THROW(m.add_variable(1.0, 0.0, 0.0), Error);        // lb > ub
  EXPECT_THROW(m.add_variable(0.0, 1.0, kInf), Error);       // non-finite obj
}

TEST(Model, ConstraintMergesDuplicateTerms) {
  Model m;
  const int x = m.add_variable(0, kInf, 0);
  const int y = m.add_variable(0, kInf, 0);
  const int c = m.add_constraint({{x, 1.0}, {y, 2.0}, {x, 3.0}}, Relation::LessEqual, 5.0);
  const auto row = m.row(c);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].var, x);
  EXPECT_DOUBLE_EQ(row[0].coef, 4.0);
  EXPECT_EQ(row[1].var, y);
}

TEST(Model, ConstraintDropsZeroCoefficients) {
  Model m;
  const int x = m.add_variable(0, kInf, 0);
  const int y = m.add_variable(0, kInf, 0);
  const int c = m.add_constraint({{x, 1.0}, {y, 0.0}}, Relation::Equal, 1.0);
  EXPECT_EQ(m.row(c).size(), 1u);
}

TEST(Model, NormalFormRowsAreStoredAsTheSortWouldStoreThem) {
  // A strictly ascending, zero-free row skips the sort/merge; it must
  // land exactly where the same terms shuffled do, through both
  // add_constraint and set_row. Ascending rows with a duplicate or a
  // signed zero are not in normal form and still merge or drop.
  Model sorted, shuffled;
  for (int j = 0; j < 6; ++j) {
    sorted.add_variable(0, kInf, 0);
    shuffled.add_variable(0, kInf, 0);
  }
  const std::vector<Term> row{{0, 0.5}, {2, -1.25}, {3, 3.0}, {5, 1e-300}};
  const std::vector<Term> mixed{{3, 3.0}, {0, 0.5}, {5, 1e-300}, {2, -1.25}};
  sorted.add_constraint(row, Relation::LessEqual, 1.0);
  shuffled.add_constraint(mixed, Relation::LessEqual, 1.0);
  sorted.add_constraint({{1, 1.0}}, Relation::LessEqual, 1.0);
  shuffled.add_constraint({{1, 1.0}}, Relation::LessEqual, 1.0);
  sorted.set_row(1, row);
  shuffled.set_row(1, mixed);
  for (int c = 0; c < 2; ++c) {
    const auto a = sorted.row(c);
    const auto b = shuffled.row(c);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
      EXPECT_EQ(a[t].var, b[t].var);
      EXPECT_EQ(a[t].coef, b[t].coef);
    }
  }
  EXPECT_EQ(sorted.structure_fingerprint(), shuffled.structure_fingerprint());

  const int dup = sorted.add_constraint({{1, 1.0}, {1, 2.0}, {4, 1.0}},
                                        Relation::LessEqual, 1.0);
  ASSERT_EQ(sorted.row(dup).size(), 2u);
  EXPECT_EQ(sorted.row(dup)[0].coef, 3.0);
  const int zero = sorted.add_constraint({{1, 1.0}, {4, -0.0}}, Relation::LessEqual, 1.0);
  EXPECT_EQ(sorted.row(zero).size(), 1u);
}

TEST(Model, ConstraintRejectsBadInput) {
  Model m;
  m.add_variable(0, 1, 0);
  EXPECT_THROW(m.add_constraint({{5, 1.0}}, Relation::LessEqual, 0.0), Error);
  EXPECT_THROW(m.add_constraint({{0, 1.0}}, Relation::LessEqual, kInf), Error);
}

TEST(Model, ObjectiveValueIncludesConstant) {
  Model m;
  m.add_variable(0, 10, 2.0);
  m.add_variable(0, 10, -1.0);
  m.set_objective_constant(5.0);
  const std::vector<double> x{3.0, 4.0};
  EXPECT_DOUBLE_EQ(m.objective_value(x), 5.0 + 6.0 - 4.0);
}

TEST(Model, FeasibilityCheck) {
  Model m;
  const int x = m.add_variable(0, 10, 0);
  const int y = m.add_variable(0, 10, 0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEqual, 5.0);
  m.add_constraint({{x, 1.0}}, Relation::GreaterEqual, 1.0);
  m.add_constraint({{y, 2.0}}, Relation::Equal, 4.0);

  EXPECT_TRUE(m.is_feasible(std::vector<double>{2.0, 2.0}, 1e-9));
  EXPECT_FALSE(m.is_feasible(std::vector<double>{4.0, 2.0}, 1e-9));  // row 0
  EXPECT_FALSE(m.is_feasible(std::vector<double>{0.5, 2.0}, 1e-9));  // row 1
  EXPECT_FALSE(m.is_feasible(std::vector<double>{2.0, 1.0}, 1e-9));  // row 2
  EXPECT_FALSE(m.is_feasible(std::vector<double>{-1.0, 2.0}, 1e-9)); // bound
  EXPECT_FALSE(m.is_feasible(std::vector<double>{2.0}, 1e-9));       // arity
}

TEST(Model, IntegerMarks) {
  Model m;
  const int x = m.add_variable(0, 10, 0);
  m.add_variable(0, 10, 0);
  m.set_integer(x);
  EXPECT_TRUE(m.is_integer(x));
  EXPECT_FALSE(m.is_integer(1));
  EXPECT_TRUE(m.is_integer_feasible(std::vector<double>{3.0, 2.5}, 1e-6));
  EXPECT_FALSE(m.is_integer_feasible(std::vector<double>{3.3, 2.5}, 1e-6));
}

TEST(Model, SetBoundsValidates) {
  Model m;
  const int x = m.add_variable(0, 1, 0);
  m.set_bounds(x, -1, 2);
  EXPECT_EQ(m.lower_bound(x), -1.0);
  EXPECT_THROW(m.set_bounds(x, 3, 2), Error);
}

}  // namespace
}  // namespace dls::lp
