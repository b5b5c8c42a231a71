#include "support/rationalize.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/rng.hpp"

namespace dls {
namespace {

TEST(Rationalize, ExactSmallFractions) {
  EXPECT_EQ(rationalize(0.5, 10), Rational(1, 2));
  EXPECT_EQ(rationalize(0.25, 10), Rational(1, 4));
  EXPECT_EQ(rationalize(-0.75, 10), Rational(-3, 4));
  EXPECT_EQ(rationalize(3.0, 10), Rational(3));
  EXPECT_EQ(rationalize(0.0, 10), Rational(0));
}

TEST(Rationalize, PiConvergents) {
  // Classical continued-fraction convergents of pi.
  EXPECT_EQ(rationalize(M_PI, 10), Rational(22, 7));
  EXPECT_EQ(rationalize(M_PI, 200), Rational(355, 113));
}

TEST(Rationalize, RespectsDenominatorBound) {
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-100.0, 100.0);
    const std::int64_t max_den = rng.uniform_int(1, 5000);
    const Rational r = rationalize(x, max_den);
    EXPECT_LE(r.den(), max_den);
    EXPECT_GE(r.den(), 1);
    // Best approximations are at least within 1/max_den of the target.
    EXPECT_LE(std::fabs(r.to_double() - x), 1.0 / static_cast<double>(max_den));
  }
}

TEST(Rationalize, BestAmongDenominatorBound) {
  // Exhaustive cross-check against all fractions with den <= bound.
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.0, 3.0);
    const std::int64_t max_den = rng.uniform_int(1, 40);
    const Rational r = rationalize(x, max_den);
    const double err = std::fabs(r.to_double() - x);
    for (std::int64_t q = 1; q <= max_den; ++q) {
      const double p = std::round(x * static_cast<double>(q));
      const double cand = std::fabs(p / static_cast<double>(q) - x);
      EXPECT_LE(err, cand + 1e-12) << "x=" << x << " den bound=" << max_den
                                   << " beaten by " << p << "/" << q;
    }
  }
}

TEST(RationalizeFloor, NeverRoundsUp) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(0.0, 50.0);
    const std::int64_t max_den = rng.uniform_int(1, 1000);
    const Rational r = rationalize_floor(x, max_den);
    EXPECT_LE(r.to_double(), x + 1e-15);
    EXPECT_GE(r.to_double(), x - 2.0 / static_cast<double>(max_den));
  }
}

TEST(Rationalize, InvalidInputs) {
  EXPECT_THROW((void)rationalize(std::nan(""), 10), Error);
  EXPECT_THROW((void)rationalize(1.0, 0), Error);
}

}  // namespace
}  // namespace dls
