// Wire-protocol tests: frame encode/decode across arbitrary TCP chunk
// boundaries, bit-exact double round trips, and rejection of malformed
// or oversized length prefixes.
#include "dist/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace dls::dist {
namespace {

TEST(Frames, RoundTripIncludingEmbeddedNewlines) {
  const std::vector<std::string> payloads = {
      "HELLO 1", "", "DONE 3 8\nsum 0 1 2 0x1p+0 0x0p+0 0x1p+0 0x1p+0 0x1p+1",
      std::string(1000, 'x')};
  std::string stream;
  for (const std::string& p : payloads) stream += encode_frame(p);

  std::string_view rest = stream;
  for (const std::string& expected : payloads) {
    const Frame frame = parse_frame(rest);
    ASSERT_GT(frame.consumed, 0u);
    EXPECT_EQ(frame.payload, expected);
    rest.remove_prefix(frame.consumed);
  }
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(parse_frame(rest).consumed, 0u);
}

TEST(Frames, ChunkBoundariesAreInvisible) {
  // Grow the buffer one byte at a time — TCP segmentation must never
  // change what parse_frame yields, and an incomplete frame consumes
  // nothing.
  const std::vector<std::string> payloads = {"RANGE 0 0 8", "PING",
                                             "CASE 0 3 2 0x1p-1 nan"};
  std::string stream;
  for (const std::string& p : payloads) stream += encode_frame(p);

  std::string buffer;
  std::vector<std::string> decoded;
  for (const char c : stream) {
    buffer.push_back(c);
    for (Frame f = parse_frame(buffer); f.consumed > 0; f = parse_frame(buffer)) {
      decoded.push_back(f.payload);
      buffer.erase(0, f.consumed);
    }
  }
  EXPECT_EQ(decoded, payloads);
  EXPECT_TRUE(buffer.empty());
}

TEST(Frames, MalformedLengthPrefixThrows) {
  EXPECT_THROW((void)parse_frame("not-a-number\nrest"), Error);
  EXPECT_THROW((void)parse_frame("999999999999\n"), Error);
}

TEST(Frames, HeaderWithoutNewlineIsBounded) {
  // A peer that never sends a newline must not grow the buffer forever:
  // up to 32 bytes is a prefix still arriving, more is an error.
  EXPECT_EQ(parse_frame(std::string(32, '7')).consumed, 0u);
  EXPECT_THROW((void)parse_frame(std::string(33, '7')), Error);
  EXPECT_THROW((void)parse_frame(std::string(100, '7')), Error);
}

TEST(Frames, LengthCapIs64MiB) {
  // At the cap the frame is merely incomplete; one byte over is refused
  // before any payload is buffered.
  EXPECT_EQ(kMaxFrameBytes, std::size_t{64} << 20);
  EXPECT_EQ(parse_frame(std::to_string(kMaxFrameBytes) + "\n").consumed, 0u);
  EXPECT_THROW((void)parse_frame(std::to_string(kMaxFrameBytes + 1) + "\n"),
               Error);
}

TEST(Doubles, RoundTripBitExact) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0 / 3.0,
                           1e308,
                           5e-324,  // min subnormal
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::epsilon(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (const double v : values) {
    const double back = decode_double(encode_double(v));
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << encode_double(v);
  }
  EXPECT_TRUE(std::isnan(decode_double(encode_double(
      std::numeric_limits<double>::quiet_NaN()))));
}

TEST(Doubles, RejectsGarbage) {
  EXPECT_THROW((void)decode_double(""), Error);
  EXPECT_THROW((void)decode_double("0x1p+1junk"), Error);
  EXPECT_THROW((void)decode_double("NaN?"), Error);
}

TEST(Hex64, RoundTripsAndRejects) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{0xdeadbeef},
        std::uint64_t{0xffffffffffffffffULL}}) {
    EXPECT_EQ(decode_hex64(encode_hex64(v)), v);
  }
  EXPECT_THROW((void)decode_hex64(""), Error);
  EXPECT_THROW((void)decode_hex64("xyz"), Error);
  EXPECT_THROW((void)decode_hex64("00000000000000001"), Error);  // 17 digits
}

TEST(Tokens, SplitsOnBlanks) {
  const std::vector<std::string> expected = {"CASE", "1", "2"};
  EXPECT_EQ(split_tokens("  CASE  1\t2 "), expected);
  EXPECT_TRUE(split_tokens("").empty());
}

}  // namespace
}  // namespace dls::dist
