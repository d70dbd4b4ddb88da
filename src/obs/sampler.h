#ifndef IOTDB_OBS_SAMPLER_H_
#define IOTDB_OBS_SAMPLER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"

namespace iotdb {
namespace obs {

/// One sampling interval: the registry delta between two consecutive
/// snapshots, with the wall-clock window it covers.
struct TimelineInterval {
  uint64_t start_micros = 0;
  uint64_t end_micros = 0;
  /// DeltaSince of the interval's end snapshot vs its start snapshot:
  /// counters and histogram counts are per-interval increments, gauges are
  /// the level observed at interval end.
  MetricsSnapshot delta;

  double DurationSeconds() const {
    return end_micros > start_micros
               ? static_cast<double>(end_micros - start_micros) / 1e6
               : 0.0;
  }

  /// Counter increment within this interval (0 when absent).
  uint64_t CounterDelta(const std::string& name) const;
  /// Gauge level at interval end (0 when absent).
  int64_t GaugeValue(const std::string& name) const;
  /// Events per second for a counter over this interval.
  double Rate(const std::string& counter_name) const;
};

/// The ordered sequence of intervals a Sampler collected over a run.
/// Because consecutive deltas telescope, the per-interval sums of any
/// counter add up exactly to (final cumulative − first cumulative) — the
/// property the bench acceptance check relies on. When the sampler's ring
/// overflows, the two *oldest* intervals are merged (deltas add, the
/// interior boundary is lost and counted in `dropped_intervals`), so the
/// ring stays bounded while the exact-total property holds over the whole
/// run; only interval granularity coarsens at the old end.
struct Timeline {
  uint64_t cadence_micros = 0;
  uint64_t dropped_intervals = 0;
  std::vector<TimelineInterval> intervals;

  bool empty() const { return intervals.empty(); }

  /// Sum of a counter's per-interval deltas across the whole timeline.
  uint64_t CounterTotal(const std::string& name) const;

  /// Machine-readable export with derived per-interval series:
  ///   {"cadence_micros":..,"dropped_intervals":..,"intervals":[
  ///     {"start_micros":..,"end_micros":..,
  ///      "ingest_kvps":..,"ingest_rate":..,
  ///      "query_count":..,"query_p50_micros":..,"query_p99_micros":..,
  ///      "flush_bytes":..,"compaction_bytes":..,"vlog_bytes":..,
  ///      "hint_queue_depth":..,"stall_micros":..,
  ///      "node_kvps":{"<id>":..}},...]}
  /// `node_kvps` collects every `cluster.node<id>.primary_kvps` counter.
  std::string ToJson() const;
};

struct SamplerOptions {
  /// Interval between background snapshots. Default 1 s, matching the
  /// per-second granularity of the paper's timeline figures.
  uint64_t cadence_micros = 1'000'000;
  /// Maximum retained intervals; beyond this the oldest pair is merged
  /// (boundaries counted in Timeline::dropped_intervals, totals exact).
  /// 4096 ≈ 68 minutes at the default cadence — comfortably past the
  /// 35-minute warmup+measurement minimum.
  size_t capacity = 4096;
  Clock* clock = nullptr;  // defaults to Clock::Real()
};

/// Background registry sampler: snapshots MetricsRegistry::Global() every
/// `cadence_micros` and keeps the consecutive `DeltaSince` deltas in a
/// bounded ring. The product is a Timeline — the per-interval time series
/// (ingest rate, query percentiles, compaction/flush activity, hint-queue
/// depth, per-node ops) that timeline.json and the FDR "Run timeline"
/// section are built from.
///
/// SampleNow() allows clock-driven tests to step the sampler
/// deterministically without the thread.
class Sampler {
 public:
  explicit Sampler(SamplerOptions options = {});
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Primes the base snapshot and starts the background thread. Returns
  /// false (and starts nothing) when the sampler is already running.
  bool Start();

  /// Stops the thread and flushes the final partial interval (if any time
  /// elapsed since the last sample). Idempotent.
  void Stop();

  bool running() const;

  /// Takes one sample immediately: the first call primes the base
  /// snapshot; later calls append an interval. Usable with or without the
  /// background thread (the thread serialises with it internally).
  void SampleNow();

  /// Copies the collected timeline (valid while running or after Stop).
  Timeline TakeTimeline() const;

 private:
  void ThreadLoop();
  void SampleLocked(std::unique_lock<std::mutex>& lock);

  SamplerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  bool stop_requested_ = false;

  bool primed_ = false;
  MetricsSnapshot base_;
  uint64_t base_micros_ = 0;
  std::deque<TimelineInterval> ring_;
  uint64_t dropped_ = 0;
};

}  // namespace obs
}  // namespace iotdb

#endif  // IOTDB_OBS_SAMPLER_H_
