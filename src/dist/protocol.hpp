// Wire protocol for distributed campaign execution (coordinator <->
// worker), modeled on the ytsaurus bus idiom scaled down to one file:
// length-prefixed frames over TCP, text payloads, no endianness traps.
//
// Frame      = <decimal payload length> '\n' <payload bytes>
// Payload    = one message line; SPEC and DONE carry extra lines after
//              the first (the length prefix makes embedded newlines
//              safe).
//
// Messages (first token of the payload):
//   worker -> coordinator
//     HELLO <protocol-version>
//     READY <spec-fingerprint-hex>        after parsing the spec
//     CASE <range-id> <case-index> <n> <v0> ... <vn-1>
//                                         one finished case; values in
//                                         C99 hex-float ("%a") so every
//                                         double round-trips bit-exact
//     DONE <range-id> <cases>             range complete; subsequent
//                                         lines carry per-range
//                                         Accumulator states
//                                         ("sum <group> <metric> <n>
//                                         <mean> <m2> <min> <max>
//                                         <sum>") merged by the
//                                         coordinator as an integrity
//                                         cross-check of the fold
//     FAIL <range-id> <message>           a case in the range threw; the
//                                         coordinator re-queues the
//                                         range once, then reports
//     PING                                heartbeat (sent while ranges
//                                         execute, so a busy worker is
//                                         distinguishable from a dead
//                                         one)
//     BYE                                 orderly goodbye after FIN
//   coordinator -> worker
//     SPEC <spec-fingerprint-hex>         second..last lines: canonical
//                                         .campaign text (the worker
//                                         needs no spec file)
//     RANGE <range-id> <lo> <hi>          lease of case indices [lo,hi),
//                                         whole execution units
//     FIN                                 no more work; disconnect
//     ABORT <message>                     fatal: spec mismatch or a
//                                         twice-failed range
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dls::dist {

/// Version 2: case indices follow the plan's unit-adjacent expansion
/// order, so a version-1 peer would read leases as other cases.
constexpr int kProtocolVersion = 2;

/// Hard ceiling on one frame (a CASE frame is < 1 KiB; SPEC frames grow
/// with the platform axis). A peer announcing more is speaking some
/// other protocol and is dropped.
constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 26;  // 64 MiB

/// Length prefix + payload, ready for send_all.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// One decoded frame: its payload and the bytes of input it used.
struct Frame {
  std::string payload;
  std::size_t consumed = 0;  ///< 0 = incomplete, nothing consumed
};

/// Decodes the first complete frame in `input` (the unconsumed bytes of
/// a connection buffer; TCP segment boundaries are meaningless), the
/// same shape as serve::parse_request. Throws dls::Error on a malformed
/// or oversized length prefix, or a prefix longer than 32 bytes still
/// missing its newline.
[[nodiscard]] Frame parse_frame(std::string_view input);

/// Bit-exact double <-> text: C99 hex-float for finite values ("%a"),
/// "nan"/"inf"/"-inf" otherwise. decode throws dls::Error on garbage.
[[nodiscard]] std::string encode_double(double value);
[[nodiscard]] double decode_double(const std::string& token);

/// Whitespace tokenizer for message lines (payloads are ASCII).
[[nodiscard]] std::vector<std::string> split_tokens(std::string_view line);

/// uint64 <-> fixed-width hex (spec fingerprints).
[[nodiscard]] std::string encode_hex64(std::uint64_t value);
[[nodiscard]] std::uint64_t decode_hex64(const std::string& token);

}  // namespace dls::dist
