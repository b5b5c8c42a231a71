// Shard-and-fold metrics registry: handle semantics, thread folding,
// capacity limits, the enable gate, both exporters, and the trace ring.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "temp_path.hpp"

namespace dls::obs {
namespace {

TEST(ObsRegistry, CounterFoldsAcrossThreads) {
  Registry reg;
  const Counter hits = reg.counter("hits_total", "test counter");
  constexpr int kThreads = 8, kPer = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&] {
      for (int i = 0; i < kPer; ++i) hits.inc();
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(hits.value(), static_cast<std::uint64_t>(kThreads) * kPer);
  EXPECT_GE(reg.shard_count(), 1u);

  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.series.size(), 1u);
  EXPECT_EQ(snap.series[0].counter, static_cast<std::uint64_t>(kThreads) * kPer);
}

TEST(ObsRegistry, ReRegisterReturnsTheSameSeries) {
  Registry reg;
  const Counter a = reg.counter("dup_total", "help", "k=\"v\"");
  const Counter b = reg.counter("dup_total", "help", "k=\"v\"");
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(a.value(), 7u);
  // A different label set under the same family is a distinct series...
  const Counter c = reg.counter("dup_total", "help", "k=\"w\"");
  c.inc();
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(reg.snapshot().series.size(), 2u);
  // ...but a different *type* under the same family name is an error.
  EXPECT_THROW((void)reg.gauge("dup_total", "help"), Error);
}

TEST(ObsRegistry, CapacityLimitsAreEnforced) {
  Registry::Limits limits;
  limits.max_counters = 2;
  Registry reg(limits);
  (void)reg.counter("a_total", "");
  (void)reg.counter("b_total", "");
  EXPECT_THROW((void)reg.counter("c_total", ""), Error);
}

TEST(ObsRegistry, DisabledHandlesDropWrites) {
  Registry reg;
  const Counter n = reg.counter("n_total", "");
  const Gauge g = reg.gauge("g", "");
  const Histogram h = reg.histogram("h_seconds", "", {1.0});
  reg.set_enabled(false);
  n.inc(5);
  g.set(3.0);
  h.observe(0.5);
  EXPECT_EQ(n.value(), 0u);
  reg.set_enabled(true);
  n.inc(5);
  EXPECT_EQ(n.value(), 5u);
}

TEST(ObsRegistry, GaugeAndHistogramSemantics) {
  Registry reg;
  const Gauge g = reg.gauge("depth", "queue depth");
  g.set(4.0);
  g.add(-1.5);
  const Histogram h = reg.histogram("lat_seconds", "", {0.01, 0.1, 1.0});
  h.observe(0.005);
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);

  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.series.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.series[0].gauge, 2.5);
  const SeriesSnapshot& hist = snap.series[1];
  ASSERT_EQ(hist.buckets.size(), 4u);  // 3 bounds + Inf
  EXPECT_EQ(hist.buckets[0], 1u);
  EXPECT_EQ(hist.buckets[1], 1u);
  EXPECT_EQ(hist.buckets[2], 1u);
  EXPECT_EQ(hist.buckets[3], 1u);
  EXPECT_EQ(hist.count, 4u);
  EXPECT_DOUBLE_EQ(hist.sum, 5.555);
}

TEST(ObsExport, PrometheusTextShape) {
  Registry reg;
  reg.counter("req_total", "requests", "method=\"get\"").inc(2);
  reg.counter("req_total", "requests", "method=\"post\"").inc(1);
  reg.gauge("temp", "").set(10.0);
  reg.histogram("lat_seconds", "", {0.5}).observe(0.25);

  const std::string text = to_prometheus(reg.snapshot());
  // One HELP/TYPE header per family, even with several series.
  EXPECT_EQ(text.find("# HELP req_total requests"),
            text.rfind("# HELP req_total requests"));
  EXPECT_NE(text.find("req_total{method=\"get\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("req_total{method=\"post\"} 1\n"), std::string::npos);
  // Integral doubles print as plain integers.
  EXPECT_NE(text.find("temp 10\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.5\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum 0.25\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 1\n"), std::string::npos);
  // Identical state must render to identical bytes (scrape determinism).
  EXPECT_EQ(text, to_prometheus(reg.snapshot()));
}

TEST(ObsExport, FormatDoubleRoundTrips) {
  EXPECT_EQ(format_double(10.0), "10");
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(1e300), "1e+300");
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(format_double(v)), v);
}

TEST(ObsTrace, RingEvictsOldestAndCountsDrops) {
  TraceRing ring(3);
  for (int i = 0; i < 5; ++i)
    ring.emit("span" + std::to_string(i));
  const std::vector<TraceSpan> spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "span2");
  EXPECT_EQ(spans[2].name, "span4");
  EXPECT_EQ(ring.dropped(), 2u);
}

TEST(ObsTrace, SinkWritesJsonl) {
  const std::string path = testutil::unique_temp_path("obs_trace", ".jsonl");
  {
    TraceRing ring(8);
    ring.set_sink(path);
    ring.emit("solve", "pivots=3", 1250);
    ring.set_sink("");
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(line.find("\"detail\":\"pivots=3\""), std::string::npos);
  EXPECT_NE(line.find("\"dur_ns\":1250"), std::string::npos);
  in.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dls::obs
