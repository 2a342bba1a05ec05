// Spans recorded by the benchmark around its own calls into each layer's
// public entry points (the program itself is not instrumented). Each
// session thread owns one SpanLog, so recording takes no lock; logs are
// merged and written out after the run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

struct Span {
  uint64_t id = 0;
  /// 0 for a root span.
  uint64_t parent = 0;
  /// Shared by every span of one request; 0 for set-up spans.
  uint64_t request = 0;
  /// A string literal (spans are recorded on the hot path).
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Append-only span log of one thread. Ids are unique across logs with
/// distinct `thread` values.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) {}

  /// Open a span now and return its id.
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request);
  /// Close span `id` now; returns its duration.
  int64_t End(uint64_t id);
  /// Record a span with explicit times (tests and replayed intervals).
  uint64_t Add(const char* name, uint64_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent,
             uint64_t request)
      : log_(log), id_(log->Begin(name, parent, request)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of its interval covered by the union of its direct children
/// (children are clipped to the parent; overlapping children count once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Durations of every span grouped by name, divided by `unit_ns` (1e3 for
/// microseconds, 1e9 for seconds) and sorted ascending.
std::map<std::string, std::vector<double>> DurationsByName(
    const std::vector<Span>& spans, double unit_ns);

/// Write `spans` as a Chrome trace-event JSON file (load it in Perfetto or
/// chrome://tracing): one complete event per span, times in microseconds
/// from the first span, with id, parent, request and self time as args.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
