// Wire-protocol tests: frame encode/decode across arbitrary TCP chunk
// boundaries, bit-exact double round trips, rejection of malformed or
// oversized length prefixes, and a coordinator refusing a peer that
// speaks an older protocol version.
#include "dist/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "campaign/spec.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "support/error.hpp"
#include "support/socket.hpp"

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

TEST(Handshake, VersionOneWorkerIsAborted) {
  // Version 2 renumbered the cases of multi-exhaust specs, so a version-1
  // worker would read leases as other cases: the coordinator answers its
  // HELLO with ABORT. A current worker then finishes the campaign.
  EXPECT_EQ(kProtocolVersion, 2);
  const campaign::ScenarioSpec spec = campaign::from_text(
      "dls-campaign 1\nname hello\nseed 3\nreplications 1\n"
      "objective maxmin\nmethod g lprg\nplatform grid clusters=3\n"
      "workload none\n");
  std::promise<std::uint16_t> port_promise;
  std::future<std::uint16_t> port = port_promise.get_future();
  CoordinatorOptions copt;
  copt.on_listen = [&port_promise](std::uint16_t p) { port_promise.set_value(p); };
  std::exception_ptr coordinator_error;
  std::thread coordinator([&] {
    try {
      (void)serve_campaign(spec, copt);
    } catch (...) {
      coordinator_error = std::current_exception();
      try {
        port_promise.set_value(0);  // never listened: unblock the test
      } catch (const std::future_error&) {
      }
    }
  });
  const std::uint16_t bound = port.get();
  if (bound == 0) {
    coordinator.join();
    FAIL() << "coordinator never listened";
  }

  std::string reply;
  {
    const Socket sock = tcp_connect("127.0.0.1", bound);
    const std::string hello = encode_frame("HELLO 1");
    EXPECT_TRUE(send_all(sock, hello.data(), hello.size()));
    std::string in;
    char buf[4096];
    for (Frame f = parse_frame(in); f.consumed == 0; f = parse_frame(in)) {
      const long got = recv_some(sock, buf, sizeof buf);
      if (got == 0) break;
      if (got > 0) in.append(buf, static_cast<std::size_t>(got));
    }
    reply = parse_frame(in).payload;
  }
  EXPECT_EQ(reply.rfind("ABORT protocol version mismatch", 0), 0u) << reply;

  WorkerOptions wopt;
  wopt.host = "127.0.0.1";
  wopt.port = bound;
  wopt.jobs = 1;
  const WorkerResult worker = run_worker(wopt);
  coordinator.join();
  EXPECT_FALSE(coordinator_error);
  EXPECT_FALSE(worker.aborted);
  EXPECT_EQ(worker.cases_run, 1u);
}

}  // namespace
}  // namespace dls::dist
