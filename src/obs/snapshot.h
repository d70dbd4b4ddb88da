#ifndef IOTDB_OBS_SNAPSHOT_H_
#define IOTDB_OBS_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace iotdb {
namespace obs {

/// Point-in-time copy of one LatencyHistogram: exact count/sum/min/max plus
/// the sparse non-empty log-buckets, so percentiles can be recomputed from
/// the snapshot (and from deltas between two snapshots) without the live
/// instrument. Also the single-threaded value histogram: Record() and
/// Merge() accumulate into it directly (per-driver query latency, YCSB
/// per-op measurements, the sim model).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // 0 when count == 0
  uint64_t max = 0;
  /// Sparse (bucket index, count) pairs, ascending by index. Bucket
  /// geometry is LatencyHistogram's (see metrics.h).
  std::vector<std::pair<uint32_t, uint64_t>> buckets;

  /// Adds one value, bucketed as LatencyHistogram::Record buckets it, so a
  /// recorded snapshot equals TakeSnapshot() of the same stream.
  void Record(uint64_t value);

  /// Adds `other`'s values. min comes from `other` when this snapshot is
  /// empty, otherwise only when `other` counted something; max is the
  /// larger of the two.
  void Merge(const HistogramSnapshot& other);

  double Mean() const;
  /// Approximate value at percentile p in [0, 100], interpolated within
  /// the covering bucket and clamped to [min, max].
  double Percentile(double p) const;

  /// Counts accumulated since `earlier` (same instrument, taken later).
  /// min/max cannot be recovered for the window and keep this snapshot's
  /// cumulative values.
  HistogramSnapshot DeltaSince(const HistogramSnapshot& earlier) const;

  bool operator==(const HistogramSnapshot&) const = default;
};

/// A full registry snapshot: every instrument by name. Names follow the
/// `layer.component.metric` convention (see DESIGN.md "Observability").
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Per-instrument delta vs an earlier snapshot of the same registry:
  /// counters and histogram counts subtract (clamped at 0); gauges keep
  /// their current value (they are levels, not totals). Instruments absent
  /// from `earlier` appear with their full value.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& earlier) const;

  /// Machine-readable export:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,
  ///                          "buckets":[[idx,count],...]},...}}
  std::string ToJson() const;

  /// Human-readable aligned table with derived histogram statistics
  /// (mean/p50/p95/p99/p99.9).
  std::string ToTable() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

}  // namespace obs
}  // namespace iotdb

#endif  // IOTDB_OBS_SNAPSHOT_H_
