#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/error.hpp"

namespace dls {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(Accumulator, EmptyMinMaxAreNaNNotFabricatedZeros) {
  // Regression: an empty accumulator used to report min() == max() == 0,
  // which downstream tables printed as if an application had completed
  // instantly. The extrema of nothing are NaN; callers render "-".
  Accumulator acc;
  EXPECT_TRUE(std::isnan(acc.min()));
  EXPECT_TRUE(std::isnan(acc.max()));
  acc.add(-3.0);
  EXPECT_EQ(acc.min(), -3.0);
  EXPECT_EQ(acc.max(), -3.0);
}

TEST(Accumulator, SingleValue) {
  Accumulator acc;
  acc.add(4.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_EQ(acc.mean(), 4.0);
  EXPECT_EQ(acc.stddev(), 0.0);
  EXPECT_EQ(acc.min(), 4.0);
  EXPECT_EQ(acc.max(), 4.0);
}

TEST(Accumulator, KnownMoments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.13809, 1e-4);  // sample stddev
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), 1.29099, 1e-4);
  EXPECT_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, Percentiles) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20.0);
}

TEST(Stats, PercentileValidation) {
  EXPECT_THROW((void)percentile(std::vector<double>{}, 50), Error);
  EXPECT_THROW((void)percentile(std::vector<double>{1.0}, 101), Error);
}

TEST(P2Quantile, ExactForSmallSamples) {
  P2Quantile q(0.5);
  EXPECT_TRUE(std::isnan(q.value()));
  q.add(30.0);
  EXPECT_DOUBLE_EQ(q.value(), 30.0);
  q.add(10.0);
  EXPECT_DOUBLE_EQ(q.value(), 20.0);
  q.add(20.0);
  // n <= 5 is exact and matches percentile()'s interpolation.
  EXPECT_DOUBLE_EQ(q.value(), percentile(std::vector<double>{10, 20, 30}, 50));
  q.add(40.0);
  q.add(50.0);
  EXPECT_DOUBLE_EQ(q.value(),
                   percentile(std::vector<double>{10, 20, 30, 40, 50}, 50));
}

TEST(P2Quantile, TracksLargeStreamsApproximately) {
  // Deterministic pseudo-uniform stream: the P^2 markers must land near
  // the exact percentiles without storing the observations.
  std::vector<double> xs;
  double state = 0.3;
  for (int i = 0; i < 20000; ++i) {
    state = state * 997.0 + 0.1234567;
    state -= std::floor(state);
    xs.push_back(state);
  }
  for (const double p : {0.5, 0.95}) {
    P2Quantile q(p);
    for (const double x : xs) q.add(x);
    EXPECT_EQ(q.count(), xs.size());
    const double exact = percentile(xs, 100.0 * p);
    EXPECT_NEAR(q.value(), exact, 0.02) << "p=" << p;
  }
}

TEST(P2Quantile, IsAPureFunctionOfTheInsertionSequence) {
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(std::sin(i * 12.9898) * 43758.5453);
  P2Quantile a(0.95), b(0.95);
  for (const double x : xs) a.add(x);
  for (const double x : xs) b.add(x);
  EXPECT_EQ(a.value(), b.value());
}

TEST(P2Quantile, RejectsBadInputs) {
  EXPECT_THROW(P2Quantile(0.0), Error);
  EXPECT_THROW(P2Quantile(1.0), Error);
  P2Quantile q(0.5);
  EXPECT_THROW(q.add(std::nan("")), Error);
}

}  // namespace
}  // namespace dls
