#ifndef KITBENCH_LIB_SPANS_H_
#define KITBENCH_LIB_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace kitbench {

/// One completed span: a timed interval around a call into a layer. Spans
/// of one request share `op_id`; `parent_id` is the span that caused it
/// (0 for the request's root span).
struct Span {
  const char* name = nullptr;  // a string literal
  uint64_t op_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;

  uint64_t duration_ns() const { return end_ns - start_ns; }
};

uint64_t NowNanos();

/// Span log of one benchmark thread. Spans are kept in memory and read out
/// after the run. Recording is off unless `enabled`; a disabled log costs
/// one branch per call and reads no clock. A log never grows beyond
/// `capacity` spans: later spans are counted as dropped instead.
class SpanLog {
 public:
  SpanLog(bool enabled, size_t capacity = size_t{1} << 22);

  bool enabled() const { return enabled_; }

  /// Process-unique id for a new request (op) or span.
  static uint64_t NextId();

  /// Opens a span; returns its id (0 when disabled). Close it with End().
  uint64_t Begin(const char* name, uint64_t op_id, uint64_t parent_id);
  void End(uint64_t span_id);

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  struct Open {
    const char* name;
    uint64_t op_id;
    uint64_t span_id;
    uint64_t parent_id;
    uint64_t start_ns;
  };

  bool enabled_;
  size_t capacity_;
  std::vector<Open> open_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// RAII span on a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op_id,
             uint64_t parent_id)
      : log_(log), id_(log->Begin(name, op_id, parent_id)) {}
  ~ScopedSpan() { log_->End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

/// Busy time of one span name: how many spans, their summed duration, and
/// their summed self time (duration minus the part of the span's interval
/// covered by its child spans).
struct SelfTime {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent. Children may overlap each other
/// (replica applies run in parallel); overlap is counted once.
std::vector<uint64_t> SelfTimesOf(const std::vector<Span>& spans);

/// Per-name totals over `spans`.
std::map<std::string, SelfTime> SelfTimeByName(const std::vector<Span>& spans);

/// Converts the program's own trace events (which carry trace/span/parent
/// ids) into benchmark spans, so one self-time computation serves both.
std::vector<Span> FromTraceEvents(
    const std::vector<iotdb::obs::TraceEvent>& events);

/// The per-layer self-time table printed by a traced run. Root spans (no
/// parent) are the requests; their self time is the part of each request no
/// layer span covers, printed as the `unattributed` residual. With
/// sequential children the rows sum exactly to the requests' total time.
std::string LayerTable(const std::vector<Span>& spans);

}  // namespace kitbench

#endif  // KITBENCH_LIB_SPANS_H_
