#include "dist/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "support/error.hpp"

namespace dls::dist {

std::string encode_frame(std::string_view payload) {
  require(payload.size() <= kMaxFrameBytes, "protocol: frame too large");
  std::string frame = std::to_string(payload.size());
  frame.push_back('\n');
  frame.append(payload);
  return frame;
}

Frame parse_frame(std::string_view input) {
  const std::size_t newline = input.find('\n');
  if (newline == std::string_view::npos) {
    require(input.size() <= 32, "protocol: length prefix missing its newline");
    return {};
  }
  const std::string_view header = input.substr(0, newline);
  require(!header.empty() && header.size() <= 20 &&
              header.find_first_not_of("0123456789") == std::string_view::npos,
          "protocol: malformed frame length prefix");
  const std::size_t length = std::strtoull(std::string(header).c_str(), nullptr, 10);
  require(length <= kMaxFrameBytes, "protocol: frame length exceeds the cap");
  if (input.size() - newline - 1 < length) return {};
  return {std::string(input.substr(newline + 1, length)), newline + 1 + length};
}

std::string encode_double(double value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

double decode_double(const std::string& token) {
  if (token == "nan") return std::numeric_limits<double>::quiet_NaN();
  if (token == "inf") return std::numeric_limits<double>::infinity();
  if (token == "-inf") return -std::numeric_limits<double>::infinity();
  const char* begin = token.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  require(end == begin + token.size() && !token.empty(),
          "protocol: malformed double '" + token + "'");
  return value;
}

std::vector<std::string> split_tokens(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

std::string encode_hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t decode_hex64(const std::string& token) {
  require(!token.empty() &&
              token.find_first_not_of("0123456789abcdefABCDEF") ==
                  std::string::npos &&
              token.size() <= 16,
          "protocol: malformed hex64 '" + token + "'");
  return std::strtoull(token.c_str(), nullptr, 16);
}

}  // namespace dls::dist
