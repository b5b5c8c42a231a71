// Tests of the benchmark harness helpers: the seeded send schedule,
// lateness and latency from the due time, the percentile summary, and
// the /metrics exposition parser.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common.hpp"
#include "promtext.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

TEST(PoissonSchedule, SameSeedSameScheduleOtherSeedOther) {
  dls::Rng a(7), b(7), c(8);
  const auto sa = poisson_schedule(400.0, 5.0, a);
  const auto sb = poisson_schedule(400.0, 5.0, b);
  const auto sc = poisson_schedule(400.0, 5.0, c);
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
}

TEST(PoissonSchedule, SortedInsideHorizonAtTheRate) {
  dls::Rng rng(3);
  const auto s = poisson_schedule(400.0, 10.0, rng);
  ASSERT_FALSE(s.empty());
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  EXPECT_GT(s.front(), 0.0);
  EXPECT_LT(s.back(), 10.0);
  // 4000 expected; five standard deviations is about 316.
  EXPECT_NEAR(static_cast<double>(s.size()), 4000.0, 316.0);
}

TEST(Timed, LatenessAndLatencyCountFromTheDueTime) {
  // Due at 1 s, sent half a second late, answered at 2 s: the stall is
  // part of the request's latency.
  const Timed t{1'000'000'000, 1'500'000'000, 2'000'000'000};
  EXPECT_DOUBLE_EQ(t.late_ms(), 500.0);
  EXPECT_DOUBLE_EQ(t.latency_ms(), 1000.0);
  // Sent early (clock skew in the caller) reads as zero lateness.
  const Timed early{2'000'000'000, 1'000'000'000, 3'000'000'000};
  EXPECT_DOUBLE_EQ(early.late_ms(), 0.0);
}

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Summarize, PicksHighestPercentileWithTenSamplesBeyond) {
  const Summary s1000 = summarize(one_to(1000));
  EXPECT_EQ(s1000.n, 1000u);
  EXPECT_DOUBLE_EQ(s1000.p25, 250.0);
  EXPECT_DOUBLE_EQ(s1000.p50, 500.0);
  EXPECT_DOUBLE_EQ(s1000.p75, 750.0);
  EXPECT_DOUBLE_EQ(s1000.p90, 900.0);
  EXPECT_DOUBLE_EQ(s1000.tail_pct, 99.0);  // 10 beyond p99, 1 beyond p99.9
  EXPECT_DOUBLE_EQ(s1000.tail, 990.0);

  const Summary s999 = summarize(one_to(999));
  EXPECT_DOUBLE_EQ(s999.tail_pct, 95.0);  // only 9 beyond p99
  EXPECT_DOUBLE_EQ(s999.tail, 950.0);

  const Summary s256 = summarize(one_to(256));
  EXPECT_EQ(s256.n, 256u);
  EXPECT_DOUBLE_EQ(s256.tail_pct, 95.0);

  const Summary s20 = summarize(one_to(20));
  EXPECT_DOUBLE_EQ(s20.tail_pct, 50.0);  // 2 beyond p90: no tail step qualifies
  EXPECT_DOUBLE_EQ(s20.tail, s20.p50);
  EXPECT_DOUBLE_EQ(s20.p25, 5.0);  // nearest rank: the 5th of 20

  const Summary none = summarize({});
  EXPECT_EQ(none.n, 0u);
}

TEST(PerItemMin, TakesEachItemsFastestPass) {
  // A burst slows item 1 in the first pass and item 2 in the second:
  // neither reaches the result.
  const std::vector<std::vector<double>> passes = {{1.0, 9.0, 3.0}, {2.0, 2.0, 8.0}};
  EXPECT_EQ(per_item_min(passes), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(per_item_min({}).empty());
}

TEST(Summarize, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = one_to(2000);
  std::reverse(v.begin(), v.end());
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.p50, 1000.0);
  EXPECT_DOUBLE_EQ(s.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 1980.0);
}

// Two /metrics scrapes of one `dls serve` daemon (an excerpt of the
// captured bodies): three arrivals before the first, then two more
// arrivals and one depart.
constexpr const char* kScrape1 = R"(# HELP dls_serve_requests_total Requests served, by endpoint
# TYPE dls_serve_requests_total counter
dls_serve_requests_total{endpoint="metrics"} 1
dls_serve_requests_total{endpoint="health"} 0
dls_serve_requests_total{endpoint="stats"} 0
dls_serve_requests_total{endpoint="mutate"} 3
dls_serve_requests_total{endpoint="other"} 0
# HELP dls_serve_arrivals_total Arrival requests by admission outcome
# TYPE dls_serve_arrivals_total counter
dls_serve_arrivals_total{outcome="admitted"} 3
dls_serve_arrivals_total{outcome="rejected_overload"} 0
dls_serve_arrivals_total{outcome="rejected_absent"} 0
dls_serve_arrivals_total{outcome="rejected_draining"} 0
# HELP dls_serve_departures_total Load departures by reason
# TYPE dls_serve_departures_total counter
dls_serve_departures_total{reason="completed"} 0
dls_serve_departures_total{reason="cancelled"} 0
dls_serve_departures_total{reason="aborted_churn"} 0
# HELP dls_lp_solves_total Simplex solves by start kind
# TYPE dls_lp_solves_total counter
dls_lp_solves_total{start="cold"} 2
dls_lp_solves_total{start="warm"} 1
dls_lp_solves_total{start="repaired"} 0
# HELP dls_lp_solve_seconds Wall time per simplex solve
# TYPE dls_lp_solve_seconds histogram
dls_lp_solve_seconds_bucket{le="1e-05"} 0
dls_lp_solve_seconds_bucket{le="3e-05"} 0
dls_lp_solve_seconds_bucket{le="0.0001"} 1
dls_lp_solve_seconds_bucket{le="0.0003"} 3
dls_lp_solve_seconds_bucket{le="0.001"} 3
dls_lp_solve_seconds_bucket{le="0.003"} 3
dls_lp_solve_seconds_bucket{le="0.01"} 3
dls_lp_solve_seconds_bucket{le="0.03"} 3
dls_lp_solve_seconds_bucket{le="0.1"} 3
dls_lp_solve_seconds_bucket{le="0.3"} 3
dls_lp_solve_seconds_bucket{le="1"} 3
dls_lp_solve_seconds_bucket{le="3"} 3
dls_lp_solve_seconds_bucket{le="10"} 3
dls_lp_solve_seconds_bucket{le="+Inf"} 3
dls_lp_solve_seconds_sum 0.000378452
dls_lp_solve_seconds_count 3
)";
constexpr const char* kScrape2 = R"(# HELP dls_serve_requests_total Requests served, by endpoint
# TYPE dls_serve_requests_total counter
dls_serve_requests_total{endpoint="metrics"} 2
dls_serve_requests_total{endpoint="health"} 0
dls_serve_requests_total{endpoint="stats"} 0
dls_serve_requests_total{endpoint="mutate"} 6
dls_serve_requests_total{endpoint="other"} 0
# HELP dls_serve_arrivals_total Arrival requests by admission outcome
# TYPE dls_serve_arrivals_total counter
dls_serve_arrivals_total{outcome="admitted"} 5
dls_serve_arrivals_total{outcome="rejected_overload"} 0
dls_serve_arrivals_total{outcome="rejected_absent"} 0
dls_serve_arrivals_total{outcome="rejected_draining"} 0
# HELP dls_serve_departures_total Load departures by reason
# TYPE dls_serve_departures_total counter
dls_serve_departures_total{reason="completed"} 0
dls_serve_departures_total{reason="cancelled"} 1
dls_serve_departures_total{reason="aborted_churn"} 0
# HELP dls_lp_solves_total Simplex solves by start kind
# TYPE dls_lp_solves_total counter
dls_lp_solves_total{start="cold"} 2
dls_lp_solves_total{start="warm"} 4
dls_lp_solves_total{start="repaired"} 0
# HELP dls_lp_solve_seconds Wall time per simplex solve
# TYPE dls_lp_solve_seconds histogram
dls_lp_solve_seconds_bucket{le="1e-05"} 0
dls_lp_solve_seconds_bucket{le="3e-05"} 0
dls_lp_solve_seconds_bucket{le="0.0001"} 1
dls_lp_solve_seconds_bucket{le="0.0003"} 6
dls_lp_solve_seconds_bucket{le="0.001"} 6
dls_lp_solve_seconds_bucket{le="0.003"} 6
dls_lp_solve_seconds_bucket{le="0.01"} 6
dls_lp_solve_seconds_bucket{le="0.03"} 6
dls_lp_solve_seconds_bucket{le="0.1"} 6
dls_lp_solve_seconds_bucket{le="0.3"} 6
dls_lp_solve_seconds_bucket{le="1"} 6
dls_lp_solve_seconds_bucket{le="3"} 6
dls_lp_solve_seconds_bucket{le="10"} 6
dls_lp_solve_seconds_bucket{le="+Inf"} 6
dls_lp_solve_seconds_sum 0.00076011
dls_lp_solve_seconds_count 6
)";

TEST(Exposition, ParsesCapturedScrape) {
  const Exposition e = parse_exposition(kScrape1);
  EXPECT_EQ(e.malformed, 0);
  EXPECT_DOUBLE_EQ(e.sum("dls_serve_arrivals_total"), 3.0);
  EXPECT_DOUBLE_EQ(e.sum("dls_serve_requests_total", "endpoint=\"mutate\""), 3.0);
  EXPECT_DOUBLE_EQ(e.sum("dls_lp_solves_total"), 3.0);
  EXPECT_DOUBLE_EQ(e.sum("dls_lp_solve_seconds_count"), 3.0);
  // A family name that prefixes another is not summed into it.
  EXPECT_DOUBLE_EQ(e.sum("dls_lp_solve_seconds"), 0.0);
  const auto b = e.buckets("dls_lp_solve_seconds");
  ASSERT_EQ(b.size(), 14u);
  EXPECT_DOUBLE_EQ(b.front().first, 1e-05);
  EXPECT_TRUE(std::isinf(b.back().first));
  EXPECT_DOUBLE_EQ(b.back().second, 3.0);
}

TEST(Exposition, DeltasBetweenCapturedScrapes) {
  const Exposition before = parse_exposition(kScrape1);
  const Exposition after = parse_exposition(kScrape2);
  EXPECT_DOUBLE_EQ(delta(before, after, "dls_serve_arrivals_total"), 2.0);
  EXPECT_DOUBLE_EQ(delta(before, after, "dls_serve_arrivals_total", "rejected"), 0.0);
  EXPECT_DOUBLE_EQ(
      delta(before, after, "dls_serve_departures_total", "reason=\"cancelled\""), 1.0);
  EXPECT_DOUBLE_EQ(delta(before, after, "dls_serve_requests_total"), 4.0);
  EXPECT_DOUBLE_EQ(delta(before, after, "dls_lp_solves_total", "start=\"warm\""), 3.0);
  EXPECT_NEAR(delta(before, after, "dls_lp_solve_seconds_sum"), 0.000381658, 1e-12);
  // The three solves gained all landed in the (1e-4, 3e-4] bucket.
  EXPECT_DOUBLE_EQ(bucket_quantile(before, after, "dls_lp_solve_seconds", 0.5), 0.0003);
  EXPECT_DOUBLE_EQ(bucket_quantile(before, after, "dls_lp_solve_seconds", 0.99), 0.0003);
  // No observations gained: no quantile.
  EXPECT_DOUBLE_EQ(bucket_quantile(after, after, "dls_lp_solve_seconds", 0.5), 0.0);
}

TEST(Exposition, SkipsCommentsAndCountsMalformedLines) {
  const Exposition e = parse_exposition(
      "# HELP x_total help text\n"
      "x_total 2\n"
      "x_total{a=\"1\"} 3\r\n"
      "no_value_here\n"
      "y_total not-a-number\n"
      "h_bucket{le=\"+Inf\"} +Inf\n");
  EXPECT_EQ(e.malformed, 2);
  EXPECT_DOUBLE_EQ(e.sum("x_total"), 5.0);
  EXPECT_DOUBLE_EQ(e.sum("x_total", "a=\"1\""), 3.0);
  EXPECT_TRUE(std::isinf(e.sum("h_bucket")));
}

TEST(SpanLog, SelfTimeIsTheSpanMinusTheUnionOfItsChildren) {
  SpanLog log;
  const int root = log.add("a.call", 0, 100'000);
  log.add("b.call", 10'000, 30'000, root);
  log.add("b.call", 20'000, 50'000, root);    // overlaps its sibling
  log.add("c.call", 90'000, 120'000, root);   // runs past its parent
  const auto self = log.self_ms();
  // a: 100 us minus the children's union inside it, [10,50) + [90,100).
  EXPECT_DOUBLE_EQ(self.at("a.call"), 0.05);
  EXPECT_DOUBLE_EQ(self.at("b.call"), 0.05);
  EXPECT_DOUBLE_EQ(self.at("c.call"), 0.03);
  EXPECT_EQ(log.durations_us("b.call"), (std::vector<double>{20.0, 30.0}));
}

}  // namespace
}  // namespace perfbench
