#include "dynamics/events.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <vector>

#include "platform/generator.hpp"

namespace dls::dynamics {
namespace {

platform::Platform grid_platform(int k, std::uint64_t seed) {
  platform::GeneratorParams params;
  params.num_clusters = k;
  params.ensure_connected = true;
  Rng rng(seed);
  return generate_platform(params, rng);
}

TEST(Events, KindNamesRoundTrip) {
  const std::vector<EventKind> all = {
      EventKind::LinkBandwidth, EventKind::LinkMaxConnect, EventKind::LinkDown,
      EventKind::LinkUp, EventKind::GatewayBandwidth, EventKind::ClusterLeave,
      EventKind::ClusterJoin, EventKind::RouterDown, EventKind::RouterUp};
  EXPECT_EQ(std::vector<EventKind>(std::begin(kEventKinds), std::end(kEventKinds)),
            all);
  for (EventKind kind : all) {
    EXPECT_STRNE(to_string(kind), "?");
    EventKind back = kind == EventKind::LinkUp ? EventKind::LinkDown : EventKind::LinkUp;
    EXPECT_TRUE(from_string(to_string(kind), back));
    EXPECT_EQ(back, kind);
  }
  EventKind untouched = EventKind::RouterUp;
  EXPECT_FALSE(from_string("link-bandwidth", untouched));
  EXPECT_EQ(untouched, EventKind::RouterUp);
  EXPECT_TRUE(has_value(EventKind::LinkBandwidth));
  EXPECT_TRUE(has_value(EventKind::LinkMaxConnect));
  EXPECT_TRUE(has_value(EventKind::GatewayBandwidth));
  EXPECT_FALSE(has_value(EventKind::LinkDown));
  EXPECT_FALSE(has_value(EventKind::ClusterLeave));
}

TEST(Events, TextRoundTripIsBitExact) {
  EventTrace trace;
  trace.events.push_back({0.0, EventKind::LinkDown, 3, 0.0});
  trace.events.push_back(
      {1.0 / 3.0, EventKind::LinkBandwidth, 1, 123.45678901234567});
  trace.events.push_back({2.5, EventKind::LinkMaxConnect, 0, 17.0});
  trace.events.push_back({2.5, EventKind::GatewayBandwidth, 2, 1e-7});
  trace.events.push_back({7.125, EventKind::ClusterLeave, 5, 0.0});
  trace.events.push_back({900.0001, EventKind::RouterUp, 4, 0.0});

  const EventTrace back = from_text(to_text(trace));
  ASSERT_EQ(back.size(), trace.size());
  for (int i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back.events[i].time, trace.events[i].time) << "event " << i;
    EXPECT_EQ(back.events[i].kind, trace.events[i].kind) << "event " << i;
    EXPECT_EQ(back.events[i].target, trace.events[i].target) << "event " << i;
    EXPECT_EQ(back.events[i].value, trace.events[i].value) << "event " << i;
  }
  // A second round trip reproduces the text itself bit for bit.
  EXPECT_EQ(to_text(back), to_text(trace));
}

TEST(Events, ParserDiagnosticsNameLineAndDefect) {
  const auto fails_with = [](const std::string& text, const std::string& what) {
    try {
      (void)from_text(text);
      ADD_FAILURE() << "expected failure for: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << "got: " << e.what();
    }
  };
  fails_with("nonsense 1\n", "bad header");
  fails_with("dls-events 2\n", "bad header");
  fails_with("dls-events 1\nfrob 1 link-down 0\n", "unknown keyword");
  fails_with("dls-events 1\nevent 1 warp-core 0\n", "unknown event kind");
  fails_with("dls-events 1\nevent 1 link-down\n", "truncated or malformed");
  fails_with("dls-events 1\nevent 1 link-bw 0\n", "truncated or malformed");
  fails_with("dls-events 1\nevent -1 link-down 0\n", "non-negative");
  fails_with("dls-events 1\nevent 5 link-down 0\nevent 2 link-up 0\n",
             "out-of-order");
  fails_with("dls-events 1\nevent 1 link-down 0 extra\n", "trailing token");
  fails_with("dls-events 1\nevent 1 link-down 0.5\n", "integer id");
  // Line numbers are reported (the defect is on line 3).
  try {
    (void)from_text("dls-events 1\nevent 1 link-down 0\nevent 1 link-down\n");
    ADD_FAILURE() << "expected failure";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << "got: " << e.what();
  }
  EXPECT_NO_THROW(from_text("dls-events 1\n"));
  EXPECT_NO_THROW(from_text("dls-events 1\n\nevent 1 link-down 0\n"));
}

TEST(Events, ValidateChecksTargetsAndValues) {
  const platform::Platform plat = grid_platform(4, 11);
  EventTrace trace;
  trace.events.push_back({1.0, EventKind::LinkDown, plat.num_links(), 0.0});
  EXPECT_THROW(trace.validate(plat), Error);  // link out of range
  trace.events[0] = {1.0, EventKind::ClusterLeave, 4, 0.0};
  EXPECT_THROW(trace.validate(plat), Error);  // cluster out of range
  trace.events[0] = {1.0, EventKind::LinkBandwidth, 0, -2.0};
  EXPECT_THROW(trace.validate(plat), Error);  // non-positive bandwidth
  trace.events[0] = {1.0, EventKind::LinkMaxConnect, 0, 2.5};
  EXPECT_THROW(trace.validate(plat), Error);  // fractional max-connect
  trace.events[0] = {1.0, EventKind::LinkBandwidth, 0, 25.0};
  EXPECT_NO_THROW(trace.validate(plat));
  trace.events.push_back({0.5, EventKind::LinkDown, 0, 0.0});
  EXPECT_THROW(trace.validate(plat), Error);  // out of order
}

TEST(Events, GeneratorsAreDeterministicSortedAndValid) {
  const platform::Platform plat = grid_platform(6, 23);
  const auto check = [&](const EventTrace& trace) {
    EXPECT_NO_THROW(trace.validate(plat));
    for (int i = 1; i < trace.size(); ++i)
      EXPECT_LE(trace.events[i - 1].time, trace.events[i].time);
  };

  FailureRepairParams fp;
  fp.horizon = 500.0;
  fp.link_mtbf = 120.0;
  fp.mean_repair = 40.0;
  Rng r1(7), r2(7);
  const EventTrace f1 = failure_repair_trace(plat, fp, r1);
  const EventTrace f2 = failure_repair_trace(plat, fp, r2);
  check(f1);
  EXPECT_GT(f1.size(), 0);
  EXPECT_EQ(to_text(f1), to_text(f2));  // same seed, same trace

  DriftParams dp;
  dp.horizon = 300.0;
  dp.step = 25.0;
  Rng r3(9);
  const EventTrace d = drift_trace(plat, dp, r3);
  check(d);
  // One event per link per step, all bandwidths clamped positive.
  EXPECT_EQ(d.size(), plat.num_links() * 11);
  for (const PlatformEvent& e : d.events) {
    EXPECT_EQ(e.kind, EventKind::LinkBandwidth);
    EXPECT_GT(e.value, 0.0);
    EXPECT_GE(e.value, plat.link(e.target).bw * dp.floor_factor);
    EXPECT_LE(e.value, plat.link(e.target).bw / dp.floor_factor);
  }

  ChurnParams cp;
  cp.horizon = 2000.0;
  cp.mean_up = 300.0;
  cp.mean_down = 100.0;
  cp.churn_fraction = 1.0;
  Rng r4(13);
  const EventTrace c = churn_trace(plat, cp, r4);
  check(c);
  EXPECT_GT(c.size(), 0);
  // Per cluster, leaves and joins alternate starting with a leave.
  for (int k = 0; k < plat.num_clusters(); ++k) {
    bool present = true;
    for (const PlatformEvent& e : c.events) {
      if (e.target != k) continue;
      if (e.kind == EventKind::ClusterLeave) {
        EXPECT_TRUE(present);
        present = false;
      } else if (e.kind == EventKind::ClusterJoin) {
        EXPECT_FALSE(present);
        present = true;
      }
    }
  }
}

TEST(Events, MergeKeepsOrderAndAllEvents) {
  EventTrace a, b;
  a.events.push_back({1.0, EventKind::LinkDown, 0, 0.0});
  a.events.push_back({5.0, EventKind::LinkUp, 0, 0.0});
  b.events.push_back({0.5, EventKind::ClusterLeave, 1, 0.0});
  b.events.push_back({5.0, EventKind::ClusterJoin, 1, 0.0});
  const EventTrace m = EventTrace::merge(a, b);
  ASSERT_EQ(m.size(), 4);
  EXPECT_EQ(m.events[0].kind, EventKind::ClusterLeave);
  EXPECT_EQ(m.events[1].kind, EventKind::LinkDown);
  // Tie at t=5: the first trace's event comes first (stable merge).
  EXPECT_EQ(m.events[2].kind, EventKind::LinkUp);
  EXPECT_EQ(m.events[3].kind, EventKind::ClusterJoin);
}

TEST(Events, ScenarioGridProducesValidTraces) {
  const platform::Platform plat = grid_platform(5, 31);
  const ChurnScenarioGrid grid;
  for (const double rate : grid.event_rate) {
    for (const double severity : grid.severity) {
      Rng rng(1000 + static_cast<std::uint64_t>(rate * 1e4) +
              static_cast<std::uint64_t>(severity * 10));
      const EventTrace trace = scenario_trace(rate, severity, 400.0, plat, rng);
      EXPECT_NO_THROW(trace.validate(plat))
          << "rate " << rate << " severity " << severity;
    }
  }
  // Higher event rates produce materially denser traces.
  Rng ra(77), rb(77);
  const EventTrace sparse =
      scenario_trace(grid.event_rate.front(), 0.5, 1000.0, plat, ra);
  const EventTrace dense =
      scenario_trace(grid.event_rate.back(), 0.5, 1000.0, plat, rb);
  EXPECT_GT(dense.size(), sparse.size());
}

}  // namespace
}  // namespace dls::dynamics
