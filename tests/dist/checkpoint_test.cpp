// Checkpoint tests: capture/serialize/restore round trips must be
// bit-exact (resume depends on it), torn or mismatched files must be
// refused with a diagnostic.
#include "dist/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include "campaign/runner.hpp"
#include "support/error.hpp"
#include "temp_path.hpp"

namespace dls::dist {
namespace {

/// A two-group report skeleton with some folded data, plus a pending
/// tail — the coordinator's fold state mid-campaign.
campaign::CampaignReport sample_report() {
  campaign::CampaignReport report;
  report.groups.resize(2);
  report.groups[0].metrics.resize(3);
  report.groups[1].metrics.resize(2);
  std::mt19937_64 rng(99);
  std::normal_distribution<double> dist(1.0, 0.5);
  for (auto& group : report.groups)
    for (auto& metric : group.metrics)
      for (int i = 0; i < 40; ++i) {
        const double x = dist(rng);
        metric.acc.add(x);
        metric.p50.add(x);
        metric.p95.add(x);
      }
  return report;
}

std::map<std::size_t, std::vector<double>> sample_pending() {
  return {{57, {1.0, -0.0, 0.125}}, {60, {std::nan(""), 2.5, 1e-300}}};
}

void expect_same_aggregates(const campaign::CampaignReport& a,
                            const campaign::CampaignReport& b) {
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    ASSERT_EQ(a.groups[g].metrics.size(), b.groups[g].metrics.size());
    for (std::size_t m = 0; m < a.groups[g].metrics.size(); ++m) {
      const auto& ma = a.groups[g].metrics[m];
      const auto& mb = b.groups[g].metrics[m];
      EXPECT_EQ(ma.acc.count(), mb.acc.count());
      EXPECT_EQ(ma.acc.mean(), mb.acc.mean());
      EXPECT_EQ(ma.acc.stddev(), mb.acc.stddev());
      EXPECT_EQ(ma.acc.min(), mb.acc.min());
      EXPECT_EQ(ma.acc.max(), mb.acc.max());
      EXPECT_EQ(ma.p50.value(), mb.p50.value());
      EXPECT_EQ(ma.p95.value(), mb.p95.value());
    }
  }
}

TEST(Checkpoint, StreamRoundTripIsBitExact) {
  const campaign::CampaignReport report = sample_report();
  const Checkpoint cp =
      capture_checkpoint(report, 0xabcdef0123456789ULL, 120, 56,
                         sample_pending());

  std::stringstream stream;
  write_checkpoint(cp, stream);
  const Checkpoint back = read_checkpoint(stream);

  EXPECT_EQ(back.spec_fingerprint, cp.spec_fingerprint);
  EXPECT_EQ(back.total_cases, 120u);
  EXPECT_EQ(back.frontier, 56u);
  ASSERT_EQ(back.pending.size(), cp.pending.size());
  EXPECT_EQ(back.pending.at(57), cp.pending.at(57));
  EXPECT_TRUE(std::isnan(back.pending.at(60)[0]));
  EXPECT_EQ(back.pending.at(60)[2], 1e-300);

  // Restoring into a fresh skeleton reproduces every aggregate bitwise.
  campaign::CampaignReport skeleton;
  skeleton.groups.resize(2);
  skeleton.groups[0].metrics.resize(3);
  skeleton.groups[1].metrics.resize(2);
  restore_checkpoint(back, skeleton);
  expect_same_aggregates(skeleton, report);
}

TEST(Checkpoint, FileRoundTripAndFingerprintRefusal) {
  const std::string path =
      testutil::unique_temp_path("dist_checkpoint", ".ckpt");
  const campaign::CampaignReport report = sample_report();
  save_checkpoint_file(
      capture_checkpoint(report, 0x1111, 80, 80, {}), path);

  const Checkpoint back = load_checkpoint_file(path, 0x1111);
  EXPECT_EQ(back.frontier, 80u);

  // Wrong fingerprint: resuming an edited spec must be refused loudly.
  try {
    (void)load_checkpoint_file(path, 0x2222);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("different campaign spec"),
              std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, TornFileIsRefused) {
  const campaign::CampaignReport report = sample_report();
  std::stringstream stream;
  write_checkpoint(capture_checkpoint(report, 1, 80, 40, sample_pending()),
                   stream);
  std::string text = stream.str();
  // Drop the trailing "end\n" sentinel plus a bit: a torn write.
  text.resize(text.size() - 10);
  std::stringstream torn(text);
  EXPECT_THROW((void)read_checkpoint(torn), Error);
}

TEST(Checkpoint, ShapeMismatchIsRefused) {
  const campaign::CampaignReport report = sample_report();
  const Checkpoint cp = capture_checkpoint(report, 1, 80, 40, {});
  campaign::CampaignReport wrong;
  wrong.groups.resize(1);
  wrong.groups[0].metrics.resize(3);
  EXPECT_THROW(restore_checkpoint(cp, wrong), Error);
}

}  // namespace
}  // namespace dls::dist
