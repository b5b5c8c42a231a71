// In-memory span log of the traced run. The harness opens a span around
// each call it makes into a layer's public functions; spans of one
// request share its id, and each span names the span that caused it.
// Nothing is written until the run ends, when the log becomes Chrome
// trace-event JSON ("ph":"X") that any trace viewer opens.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;       ///< index of the causing span, -1 for a root
    std::int64_t req = -1; ///< request id shared by one request's spans
    int tid = 0;           ///< harness thread that made the call
  };

  /// Opens a span now; returns its index for end() and for children.
  int begin(const std::string& name, int parent = -1, std::int64_t req = -1,
            int tid = 0);
  void end(int index);
  /// Records a span whose times were taken elsewhere.
  int add(const std::string& name, std::uint64_t start_ns, std::uint64_t end_ns,
          int parent = -1, std::int64_t req = -1, int tid = 0);

  /// Self time per span name in ms: each span's duration minus the part
  /// of it that its children cover.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Duration samples (us) of every span with this name.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;

  /// Writes {"traceEvents":[...]} with "ph":"X" complete events.
  void write_chrome(const std::string& path) const;

private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; inert when the log is null (the untraced run).
class Scope {
public:
  Scope(SpanLog* log, const std::string& name, int parent = -1,
        std::int64_t req = -1, int tid = 0)
      : log_(log), index_(log ? log->begin(name, parent, req, tid) : -1) {}
  ~Scope() {
    if (log_) log_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int index() const { return index_; }

private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench
