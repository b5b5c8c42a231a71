#include "spans.hpp"

#include <algorithm>
#include <fstream>

#include "obs/export.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace perfbench {

int SpanLog::begin(const std::string& name, int parent, std::int64_t req, int tid) {
  const std::uint64_t now = dls::now_ns();
  return add(name, now, now, parent, req, tid);
}

void SpanLog::end(int index) {
  const std::uint64_t now = dls::now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = now;
}

int SpanLog::add(const std::string& name, std::uint64_t start_ns,
                 std::uint64_t end_ns, int parent, std::int64_t req, int tid) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_ns, end_ns, parent, req, tid});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double> SpanLog::self_ms() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Children of each span, as [start, end) intervals clipped to it.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].emplace_back(
        s.start_ns, s.end_ns);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals inside this span.
    std::uint64_t covered = 0, cursor = s.start_ns;
    for (auto [a, b] : iv) {
      a = std::max(a, cursor);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    const std::uint64_t dur = s.end_ns - s.start_ns;
    out[s.name] += static_cast<double>(dur - std::min(dur, covered)) * 1e-6;
  }
  return out;
}

std::vector<double> SpanLog::durations_us(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  return out;
}

void SpanLog::write_chrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream os(path, std::ios::trunc);
  dls::require(os.good(), "cannot write trace file '" + path + "'");
  const std::uint64_t t0 = spans_.empty() ? 0 : std::min_element(
      spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
        return a.start_ns < b.start_ns;
      })->start_ns;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const auto us = [](std::uint64_t ns) {
    return dls::obs::format_double(static_cast<double>(ns) * 1e-3);
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << dls::obs::json_escape(s.name)
       << "\",\"cat\":\"" << dls::obs::json_escape(s.name.substr(0, s.name.find('.')))
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << us(s.start_ns - t0) << ",\"dur\":" << us(s.end_ns - s.start_ns)
       << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
       << ",\"req\":" << s.req << "}}";
  }
  os << "\n]}\n";
  dls::require(os.good(), "failed writing trace file '" + path + "'");
}

}  // namespace perfbench
