// Structured trace ring: a bounded in-memory span log for "what did
// the scheduler just do" questions that counters aggregate away. Each
// span is (steady-clock ns, name, detail, optional duration); the ring
// keeps the most recent N and counts what it overwrote. An optional
// sink mirrors every span to a JSONL file (`dls serve --trace-file`)
// so a replay leaves a machine-readable timeline behind.
//
// Writes take a mutex — spans are emitted at scheduler-event rate
// (arrivals, reschedules, platform events), orders of magnitude below
// the counter hot paths, so sharding would buy nothing here.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dls::obs {

struct TraceSpan {
  std::uint64_t ts_ns = 0;   ///< support now_ns() at emit
  std::uint64_t dur_ns = 0;  ///< 0 for instant events
  std::string name;
  std::string detail;
};

class TraceRing {
public:
  explicit TraceRing(std::size_t capacity = 1024);
  ~TraceRing();

  /// Mirrors subsequent spans to `path` as JSON lines (append mode).
  /// Empty path closes the sink. Throws dls::Error if unwritable.
  void set_sink(const std::string& path);

  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const;

  void emit(std::string_view name, std::string_view detail = {},
            std::uint64_t dur_ns = 0);

  /// Buffered spans, oldest first.
  [[nodiscard]] std::vector<TraceSpan> snapshot() const;
  /// Spans evicted from the ring since construction (sink still saw them).
  [[nodiscard]] std::uint64_t dropped() const;

private:
  mutable std::mutex mutex_;
  std::vector<TraceSpan> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;   ///< next write position
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  bool enabled_ = true;
  void* sink_ = nullptr;   ///< FILE*, kept opaque to spare <cstdio> here
};

/// Process-global ring used by the instrumentation macros below.
[[nodiscard]] TraceRing& trace_ring();

/// Emits on the global ring.
void trace(std::string_view name, std::string_view detail = {},
           std::uint64_t dur_ns = 0);

}  // namespace dls::obs
