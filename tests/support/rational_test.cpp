#include "support/rational.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace dls {
namespace {

TEST(Rational, DefaultIsZero) {
  Rational r;
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(Rational, NormalizesToLowestTerms) {
  Rational r(6, 8);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 4);
}

TEST(Rational, NormalizesSignToDenominator) {
  Rational r(3, -4);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 4);
  Rational s(-3, -4);
  EXPECT_EQ(s.num(), 3);
  EXPECT_EQ(s.den(), 4);
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), Error);
}

TEST(Rational, ZeroNumeratorCanonical) {
  Rational r(0, 42);
  EXPECT_EQ(r.den(), 1);
}

TEST(Rational, Addition) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) + Rational(-1, 2), Rational(0));
}

TEST(Rational, Subtraction) {
  EXPECT_EQ(Rational(3, 4) - Rational(1, 4), Rational(1, 2));
}

TEST(Rational, Multiplication) {
  EXPECT_EQ(Rational(2, 3) * Rational(9, 4), Rational(3, 2));
}

TEST(Rational, Division) {
  EXPECT_EQ(Rational(2, 3) / Rational(4, 3), Rational(1, 2));
  EXPECT_THROW(Rational(1) / Rational(0), Error);
}

TEST(Rational, Comparison) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 4).to_double(), 0.25);
  EXPECT_DOUBLE_EQ(Rational(-3, 2).to_double(), -1.5);
}

TEST(Rational, ToString) {
  EXPECT_EQ(Rational(5).to_string(), "5");
  EXPECT_EQ(Rational(-7, 3).to_string(), "-7/3");
}

TEST(Rational, ImplicitIntegerLift) {
  Rational r = 7;
  EXPECT_EQ(r, Rational(7, 1));
}

TEST(Rational, AdditionAvoidsSpuriousOverflow) {
  // Cross-reduction keeps a/b + c/b well within range even when b is huge.
  const std::int64_t big = 1'000'000'007LL * 4;
  Rational a(1, big), b(3, big);
  EXPECT_EQ(a + b, Rational(4, big));
}

TEST(Rational, OverflowDetected) {
  const std::int64_t big = std::numeric_limits<std::int64_t>::max() / 2 + 1;
  Rational a(big, 1);
  EXPECT_THROW(a + a, Error);
  EXPECT_THROW(Rational(big, 3) * Rational(big, 5), Error);
}

TEST(Gcd64, Basics) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(-12, 18), 6);
  EXPECT_EQ(gcd64(0, 5), 5);
  EXPECT_EQ(gcd64(0, 0), 0);
  EXPECT_EQ(gcd64(7, 13), 1);
}

TEST(Lcm64, Basics) {
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(0, 5), 0);
  EXPECT_EQ(lcm64(7, 13), 91);
}

TEST(Lcm64, OverflowDetected) {
  const std::int64_t big = (1LL << 62) + 1;  // == 2 (mod 3), so coprime with 3
  EXPECT_THROW((void)lcm64(big, 3), Error);
}

}  // namespace
}  // namespace dls
