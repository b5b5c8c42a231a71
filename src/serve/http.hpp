// Request parsing for the serving daemon's dual protocol. A connection
// speaks either
//   * minimal HTTP/1.x — "GET /metrics HTTP/1.1" + headers + blank
//     line (no bodies; every daemon endpoint is parameterized through
//     the request target), or
//   * the line protocol — one newline-terminated command ("arrive 3
//     12.5 4000 app0"), the interactive/netcat-friendly twin of the
//     dist layer's framed protocol.
// The sniffing rule: a first token of GET/POST/HEAD means HTTP,
// anything else is a line command. Parsing is incremental and
// pipelining-safe — parse_request() consumes exactly one request and
// reports how many bytes it used, so a buffer holding one and a half
// requests yields the first and keeps the remainder.
#pragma once

#include <map>
#include <string>
#include <string_view>

namespace dls::serve {

struct Request {
  enum class Kind {
    Incomplete,  ///< need more bytes; nothing consumed
    Http,        ///< method/target filled
    Line,        ///< line filled (trimmed, may be empty)
    Error,       ///< protocol violation; error filled, connection must close
  };
  Kind kind = Kind::Incomplete;
  std::string method;  ///< HTTP: "GET" | "POST" | "HEAD"
  std::string target;  ///< HTTP: "/metrics", "/arrive?cluster=2", ...
  std::string line;    ///< line protocol: the whole command line
  std::string error;   ///< Kind::Error: human-readable reason
  std::size_t consumed = 0;  ///< bytes of input this request used
};

/// How many bytes one request may span (request line + headers for
/// HTTP, one line for the line protocol).
constexpr std::size_t kMaxRequestBytes = 8192;

/// Parses the first complete request out of `input`. A request longer
/// than `max_request` yields Kind::Error rather than unbounded
/// buffering.
[[nodiscard]] Request parse_request(std::string_view input,
                                    std::size_t max_request = kMaxRequestBytes);

/// Splits the query part of a target ("/arrive?cluster=2&load=4e3")
/// into the path and a key→value map. No percent-decoding beyond '+'
/// → ' ' — values here are numbers and short names.
[[nodiscard]] std::string split_target(const std::string& target,
                                       std::map<std::string, std::string>& query);

/// Serializes a minimal HTTP response (status line, Content-Type,
/// Content-Length, Connection: close, body).
[[nodiscard]] std::string http_response(int status, const std::string& reason,
                                        const std::string& content_type,
                                        const std::string& body);

}  // namespace dls::serve
