#include "serve/http.hpp"

#include <utility>

namespace dls::serve {

namespace {

bool is_http_method(std::string_view token) {
  return token == "GET" || token == "POST" || token == "HEAD";
}

std::string_view first_token(std::string_view line) {
  const std::size_t start = line.find_first_not_of(' ');
  if (start == std::string_view::npos) return {};
  std::size_t end = line.find(' ', start);
  if (end == std::string_view::npos) end = line.size();
  return line.substr(start, end - start);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r'))
    s.remove_prefix(1);
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

}  // namespace

Request parse_request(std::string_view input, std::size_t max_request) {
  // Every path returns `req` itself, so the copy is elided on the hot path.
  Request req;
  const auto fail = [&req](std::string why) {
    req.kind = Request::Kind::Error;
    req.error = std::move(why);
  };
  const auto too_long = [&](const char* what) {
    fail(what + std::to_string(max_request) + " bytes");
  };
  if (input.empty()) return req;

  const std::size_t eol = input.find('\n');
  if (eol == std::string_view::npos) {  // truncated request line: wait for the rest
    if (input.size() > max_request) too_long("request line exceeds ");
    return req;
  }

  const std::string_view line = trim(input.substr(0, eol));
  if (!is_http_method(first_token(line))) {
    if (eol + 1 > max_request) {
      too_long("command line exceeds ");
      return req;
    }
    req.kind = Request::Kind::Line;
    req.line.assign(line);
    req.consumed = eol + 1;
    return req;
  }

  // HTTP: the request spans up to the blank line ending the headers
  // (either CRLF or bare LF convention — take whichever ends first).
  std::size_t head_end = std::string_view::npos;
  if (const std::size_t crlf = input.find("\n\r\n");
      crlf != std::string_view::npos)
    head_end = crlf + 3;
  if (const std::size_t lf = input.find("\n\n");
      lf != std::string_view::npos &&
      (head_end == std::string_view::npos || lf + 2 < head_end))
    head_end = lf + 2;
  if (head_end == std::string_view::npos || head_end > max_request) {
    // Headers still arriving, or too long already.
    if (input.size() > max_request) too_long("request headers exceed ");
    return req;
  }

  // "METHOD SP target SP HTTP/x.y"
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string_view::npos
                              ? std::string_view::npos
                              : line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos ||
      line.substr(sp2 + 1).substr(0, 5) != "HTTP/") {
    fail("malformed HTTP request line");
    return req;
  }
  req.kind = Request::Kind::Http;
  req.method.assign(line.substr(0, sp1));
  req.target.assign(trim(line.substr(sp1 + 1, sp2 - sp1 - 1)));
  req.consumed = head_end;
  if (req.target.empty()) fail("empty request target");
  return req;
}

std::string split_target(const std::string& target,
                         std::map<std::string, std::string>& query) {
  query.clear();
  const std::size_t qmark = target.find('?');
  if (qmark == std::string::npos) return target;
  std::size_t pos = qmark + 1;
  while (pos <= target.size()) {
    std::size_t amp = target.find('&', pos);
    if (amp == std::string::npos) amp = target.size();
    const std::string pair = target.substr(pos, amp - pos);
    if (!pair.empty()) {
      const std::size_t eq = pair.find('=');
      std::string key = pair.substr(0, eq);
      std::string value = eq == std::string::npos ? "" : pair.substr(eq + 1);
      for (char& c : value)
        if (c == '+') c = ' ';
      query[std::move(key)] = std::move(value);
    }
    pos = amp + 1;
  }
  return target.substr(0, qmark);
}

std::string http_response(int status, const std::string& reason,
                          const std::string& content_type,
                          const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace dls::serve
