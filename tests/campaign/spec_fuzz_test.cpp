// Robustness fuzzing of the `.campaign` parser, seeded from the committed
// specs: byte mutations, truncations at every line boundary and garbage
// input must either parse to a spec whose canonical text round-trips
// unchanged through to_text, or throw dls::Error — never crash, hang or
// build a spec that prints differently after a reload.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

#ifndef DLS_SOURCE_DIR
#define DLS_SOURCE_DIR "."
#endif

namespace dls::campaign {
namespace {

std::vector<std::string> seed_specs() {
  std::vector<std::string> out;
  for (const char* name :
       {"example.campaign", "table1_sweep.campaign", "multi_load.campaign"}) {
    std::ifstream in(std::string(DLS_SOURCE_DIR) + "/data/" + name);
    EXPECT_TRUE(in.good()) << "missing seed spec " << name;
    std::ostringstream text;
    text << in.rdbuf();
    out.push_back(text.str());
  }
  return out;
}

enum class Outcome { Parsed, Rejected };

/// Parses `text`; a parsed spec must print the same canonical text after
/// a reload of its own canonical text.
Outcome check(const std::string& text) {
  ScenarioSpec spec;
  try {
    spec = from_text(text);
  } catch (const Error&) {
    return Outcome::Rejected;
  }
  const std::string canonical = to_text(spec);
  std::string reloaded;
  try {
    reloaded = to_text(from_text(canonical));
  } catch (const Error& e) {
    ADD_FAILURE() << "canonical text of a parsed spec does not reload: "
                  << e.what() << "\ninput:\n"
                  << text << "\ncanonical:\n"
                  << canonical;
    return Outcome::Parsed;
  }
  EXPECT_EQ(reloaded, canonical) << "input:\n" << text;
  return Outcome::Parsed;
}

TEST(CampaignSpecFuzz, SeedSpecsRoundTrip) {
  for (const std::string& text : seed_specs())
    EXPECT_EQ(check(text), Outcome::Parsed) << text;
}

TEST(CampaignSpecFuzz, RandomByteMutations) {
  const std::vector<std::string> seeds = seed_specs();
  ASSERT_FALSE(seeds.empty());
  Rng rng(1);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    std::string text = seeds[rng.index(seeds.size())];
    const int mutations = static_cast<int>(rng.uniform_int(1, 6));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const std::size_t pos = rng.index(text.size());
      switch (rng.uniform_int(0, 3)) {
        case 0:  // flip to a random printable byte
          text[pos] = static_cast<char>(rng.uniform_int(32, 126));
          break;
        case 1:  // delete a byte
          text.erase(pos, 1);
          break;
        case 2:  // duplicate a byte
          text.insert(pos, 1, text[pos]);
          break;
        default:  // flip to a digit or separator the grammar cares about
          text[pos] = "0123456789,.=-\n "[rng.index(16)];
          break;
      }
    }
    (check(text) == Outcome::Parsed ? parsed : rejected) += 1;
  }
  // Both outcomes must occur: mutations inside comments, names or digits
  // are benign, most others are rejected.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(CampaignSpecFuzz, TruncationsAtEveryLineBoundary) {
  for (const std::string& text : seed_specs()) {
    int parsed = 0;
    for (std::size_t pos = 0; pos < text.size(); ++pos) {
      if (text[pos] != '\n') continue;
      parsed += check(text.substr(0, pos + 1)) == Outcome::Parsed;
      (void)check(text.substr(0, pos));  // cut before the newline too
    }
    // The untruncated spec ends in a newline, so its last cut parses.
    EXPECT_GT(parsed, 0);
  }
}

TEST(CampaignSpecFuzz, GarbageInputsAreRejected) {
  Rng rng(4);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage;
    const int len = static_cast<int>(rng.uniform_int(0, 200));
    for (int i = 0; i < len; ++i)
      garbage += static_cast<char>(rng.uniform_int(9, 126));
    EXPECT_THROW((void)from_text(garbage), Error) << trial;
    // Garbage after a valid header reaches the keyword parser.
    EXPECT_EQ(check("dls-campaign 1\n" + garbage), Outcome::Rejected) << trial;
  }
}

}  // namespace
}  // namespace dls::campaign
