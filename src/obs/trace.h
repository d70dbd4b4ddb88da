#ifndef IOTDB_OBS_TRACE_H_
#define IOTDB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "obs/metrics.h"

namespace iotdb {
namespace obs {

/// Causal identity of one request-scoped span. A context is minted at the
/// op's entry point (the driver), derived (`Child`) at every hop the op
/// takes — group-commit leader, channel message, replica apply — and
/// recorded alongside the span so the exporter can reconstruct the
/// parent→child tree and draw cross-thread flow arrows. `trace_id == 0`
/// means "not part of a traced op"; ids are process-unique, never reused.
struct TraceContext {
  uint64_t trace_id = 0;   // one per driver-level op
  uint64_t span_id = 0;    // this span
  uint64_t parent_id = 0;  // enclosing span (0 = root)

  bool valid() const { return trace_id != 0; }

  /// A fresh root context (new trace, new span, no parent).
  static TraceContext Mint();

  /// A child context under this span, in the same trace.
  TraceContext Child() const;

  /// Process-unique non-zero id (one relaxed fetch_add).
  static uint64_t NextId();
};

/// Thread-local "current op" context, so the storage write path can pick
/// up causal identity without threading a parameter through every layer.
/// Returns an invalid (trace_id == 0) context when none is installed.
const TraceContext& CurrentTraceContext();

/// Installs `ctx` as the calling thread's current context for the scope's
/// lifetime and restores the previous one on exit. Construction is two TLS
/// stores; safe to use unconditionally on hot paths.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

/// One completed span, as exported from the trace ring. Names are static
/// string literals (the recording API never copies them), so a snapshot is
/// cheap and allocation-free on the hot path.
struct TraceEvent {
  const char* name = nullptr;      // span name (layer.component convention)
  const char* arg_name = nullptr;  // optional single argument, may be null
  uint64_t arg_value = 0;
  uint64_t start_micros = 0;       // Clock::NowMicros at span start
  uint64_t duration_micros = 0;
  uint32_t tid = 0;                // small sequential trace thread id
  uint64_t trace_id = 0;           // 0 = span not part of a traced op
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
};

/// Process-wide span sink: per-thread lock-free ring buffers of completed
/// spans, exported as Chrome `trace_event` JSON (loadable in Perfetto or
/// chrome://tracing).
///
/// Recording (`Record`) is wait-free and touches only the calling thread's
/// ring: one relaxed enabled-check, a handful of relaxed atomic stores, one
/// release publish of the head index. When tracing is off the whole call is
/// a single predicted branch — the cost budget `bench_micro_obs` gates.
///
/// The exporter may run while writers keep recording: every slot field is
/// an individual atomic, so a concurrent overwrite can at worst produce a
/// span whose fields mix two records (bounded to the ring's oldest slot) —
/// never a torn pointer, a data race, or malformed JSON. Quiesced exports
/// are exact. Rings wrap by overwriting the oldest span; the number of
/// overwritten spans is reported per snapshot so truncation is never
/// silent.
class TraceBuffer {
 public:
  static constexpr size_t kDefaultCapacityPerThread = 16384;

  /// True while spans are being collected. One relaxed load.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Clears previously collected spans and starts collecting, with
  /// `capacity_per_thread` slots per recording thread. Idempotent while
  /// already tracing (keeps the existing spans).
  static void StartTracing(
      size_t capacity_per_thread = kDefaultCapacityPerThread);

  /// Stops collecting. Already-recorded spans stay readable until the next
  /// StartTracing.
  static void StopTracing();

  /// Records one completed span into the calling thread's ring. No-op when
  /// tracing is off. `name` and `arg_name` must be string literals (or
  /// otherwise outlive the buffer).
  static void Record(const char* name, uint64_t start_micros,
                     uint64_t duration_micros,
                     const char* arg_name = nullptr, uint64_t arg_value = 0);

  /// Context-carrying form: additionally stamps the span's causal identity
  /// so the export links it into its trace's flow. Same cost envelope as
  /// the plain form plus three relaxed stores (`bench_micro_obs` gates it
  /// at 25 ns).
  static void Record(const char* name, uint64_t start_micros,
                     uint64_t duration_micros, const TraceContext& ctx,
                     const char* arg_name = nullptr, uint64_t arg_value = 0);

  /// Copies every thread's retained spans, oldest first per thread. Safe
  /// while writers keep recording (see class comment).
  static std::vector<TraceEvent> Snapshot();

  /// Spans overwritten by ring wraparound since StartTracing. Also mirrors
  /// the value into the `obs.trace.dropped_spans` registry gauge so runs
  /// that only keep metrics still see trace truncation.
  static uint64_t DroppedSpans();

  /// Chrome trace_event export: {"traceEvents":[{"name","ph":"X","ts",
  /// "dur","pid","tid","args"}...]}. `ts`/`dur` are microseconds, as the
  /// trace_event spec requires. Context-stamped spans additionally carry
  /// Perfetto flow bindings — `"bind_id"` (the trace id, hex) plus
  /// `"flow_out"` on spans with a recorded child and `"flow_in"` on spans
  /// with a recorded parent — so one traced op renders as a chain of flow
  /// arrows across threads.
  static std::string ToChromeTraceJson();

 private:
  struct Slot;
  struct ThreadRing;
  struct Registry;

  static Registry& GlobalRegistry();
  static ThreadRing* RingForThisThread();

  static std::atomic<bool> enabled_;
};

/// RAII span: times the enclosing scope into (a) the registry latency
/// histogram named `name`, and (b) the trace ring when tracing is enabled.
/// With tracing off it costs two clock reads and one histogram record; a
/// span given a null histogram reads no clock unless tracing is on.
///
/// `name` must be a string literal (it is retained by the trace ring). For
/// hot paths prefer passing the pre-resolved histogram pointer; without it
/// the constructor resolves `name` in the global registry (one mutex).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, Clock* clock = Clock::Real())
      : TraceSpan(name, MetricsRegistry::Global().GetHistogram(name),
                  clock) {}

  /// Hot-path form: histogram resolved by the caller once.
  TraceSpan(const char* name, LatencyHistogram* hist,
            Clock* clock = Clock::Real())
      : name_(name),
        hist_(hist),
        tracing_(TraceBuffer::Enabled()),
        clock_(clock) {
    if (hist_ != nullptr || tracing_) start_ = clock_->NowMicros();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { Stop(); }

  /// Attaches a single argument exported with the trace event (e.g. kvps
  /// of a group commit). `arg_name` must be a string literal.
  void SetArg(const char* arg_name, uint64_t value) {
    arg_name_ = arg_name;
    arg_value_ = value;
  }

  /// Links the span into a traced op's flow; the recorded event carries
  /// `ctx` verbatim (the caller decides root vs `Child()`).
  void SetContext(const TraceContext& ctx) { ctx_ = ctx; }
  const TraceContext& context() const { return ctx_; }

  /// Records now instead of at scope exit; idempotent.
  void Stop() {
    if (hist_ == nullptr && !tracing_) return;
    uint64_t now = clock_->NowMicros();
    uint64_t elapsed = now >= start_ ? now - start_ : 0;
    if (hist_ != nullptr) hist_->Record(elapsed);
    if (tracing_) {
      if (ctx_.valid()) {
        TraceBuffer::Record(name_, start_, elapsed, ctx_, arg_name_,
                            arg_value_);
      } else {
        TraceBuffer::Record(name_, start_, elapsed, arg_name_, arg_value_);
      }
    }
    hist_ = nullptr;
    tracing_ = false;
  }

  /// Drops the measurement (the guarded operation failed and its latency
  /// would pollute the distribution / clutter the trace).
  void Cancel() {
    hist_ = nullptr;
    tracing_ = false;
  }

 private:
  const char* name_;
  const char* arg_name_ = nullptr;
  uint64_t arg_value_ = 0;
  TraceContext ctx_;
  LatencyHistogram* hist_;
  bool tracing_;
  Clock* clock_;
  uint64_t start_ = 0;
};

}  // namespace obs
}  // namespace iotdb

#endif  // IOTDB_OBS_TRACE_H_
