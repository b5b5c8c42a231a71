// Unique temp file names for tests. ctest -j runs every test in its own
// process, so a fixed name shared by two tests (or by two concurrent
// suite runs) lets one test delete or overwrite another's file.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <random>
#include <string>

namespace dls::testutil {

/// TempDir() + prefix + "-<microseconds>-<random>" + suffix: unique per
/// call across processes.
inline std::string unique_temp_path(const std::string& prefix,
                                    const std::string& suffix = "") {
  static std::mt19937_64 rng(std::random_device{}());
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count();
  char stamp[48];
  std::snprintf(stamp, sizeof stamp, "-%016" PRIx64 "-%016" PRIx64,
                static_cast<std::uint64_t>(micros),
                static_cast<std::uint64_t>(rng()));
  return ::testing::TempDir() + prefix + stamp + suffix;
}

}  // namespace dls::testutil
