#include "obs/trace.hpp"

#include <cstdio>

#include "obs/export.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace dls::obs {

TraceRing::TraceRing(std::size_t capacity)
    : ring_(capacity), capacity_(capacity) {}

TraceRing::~TraceRing() {
  if (sink_ != nullptr) std::fclose(static_cast<std::FILE*>(sink_));
}

void TraceRing::set_sink(const std::string& path) {
  std::scoped_lock lock(mutex_);
  if (sink_ != nullptr) {
    std::fclose(static_cast<std::FILE*>(sink_));
    sink_ = nullptr;
  }
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "a");
  require(f != nullptr, "obs: cannot open trace sink '" + path + "'");
  sink_ = f;
}

void TraceRing::set_enabled(bool enabled) {
  std::scoped_lock lock(mutex_);
  enabled_ = enabled;
}

bool TraceRing::enabled() const {
  std::scoped_lock lock(mutex_);
  return enabled_;
}

void TraceRing::emit(std::string_view name, std::string_view detail,
                     std::uint64_t dur_ns) {
  std::scoped_lock lock(mutex_);
  if (!enabled_ || capacity_ == 0) return;
  TraceSpan& slot = ring_[head_];
  if (size_ == capacity_) ++dropped_;
  slot.ts_ns = now_ns();
  slot.dur_ns = dur_ns;
  slot.name.assign(name);
  slot.detail.assign(detail);
  if (sink_ != nullptr) {
    std::string line = "{\"ts_ns\":" + std::to_string(slot.ts_ns);
    if (dur_ns != 0) line += ",\"dur_ns\":" + std::to_string(dur_ns);
    line += ",\"name\":\"" + json_escape(slot.name) + "\"";
    if (!slot.detail.empty()) {
      line += ",\"detail\":\"" + json_escape(slot.detail) + "\"";
    }
    line += "}\n";
    std::fputs(line.c_str(), static_cast<std::FILE*>(sink_));
    std::fflush(static_cast<std::FILE*>(sink_));
  }
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
}

std::vector<TraceSpan> TraceRing::snapshot() const {
  std::scoped_lock lock(mutex_);
  std::vector<TraceSpan> out;
  out.reserve(size_);
  const std::size_t first = (head_ + capacity_ - size_) % capacity_;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(first + i) % capacity_]);
  }
  return out;
}

std::uint64_t TraceRing::dropped() const {
  std::scoped_lock lock(mutex_);
  return dropped_;
}

TraceRing& trace_ring() {
  static TraceRing instance;
  return instance;
}

void trace(std::string_view name, std::string_view detail, std::uint64_t dur_ns) {
  trace_ring().emit(name, detail, dur_ns);
}

}  // namespace dls::obs
