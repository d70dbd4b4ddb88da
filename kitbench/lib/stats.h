#ifndef KITBENCH_LIB_STATS_H_
#define KITBENCH_LIB_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/snapshot.h"

namespace kitbench {

/// Nearest-rank percentile of `values` (p in [0, 100]); 0 when empty.
/// Sorts a copy, so callers may pass unsorted samples.
double Percentile(std::vector<double> values, double p);

double Median(std::vector<double> values);

/// Number of samples ranked strictly above the nearest-rank p-th
/// percentile of `n` samples.
uint64_t SamplesBeyond(uint64_t n, double p);

/// The tail percentile a timing may be reported at: the highest of
/// 99.99 / 99.9 / 99 / 90 / 50 that still has at least ten samples beyond
/// it. 0 when even the median has fewer than ten samples beyond it.
double TailPercentileFor(uint64_t n);

/// A latency distribution summarised the way every benchmark timing is
/// reported: median, the tail at TailPercentileFor(count), and the count.
struct Summary {
  uint64_t count = 0;
  double p50 = 0;
  double tail_pct = 0;  // 0 = too few samples for any tail
  double tail = 0;
};
Summary Summarize(const std::vector<double>& values);

/// Attempted / failed operation accounting. An op that errors or whose
/// output check fails counts as failed.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const OpCount& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  /// failed / attempted; 1 when nothing was attempted, because a run that
  /// attempted nothing has shown nothing to be correct.
  double ErrorRate() const;
  bool AllOk() const { return attempted > 0 && failed == 0; }
};

/// Bucket-wise sum of two snapshots of the same registry histogram (e.g.
/// the deltas of two measured executions).
iotdb::obs::HistogramSnapshot MergeHistograms(
    const iotdb::obs::HistogramSnapshot& a,
    const iotdb::obs::HistogramSnapshot& b);

/// Counter-, histogram- and gauge-wise merge of two registry deltas:
/// counters and histograms add, gauges keep the later value.
iotdb::obs::MetricsSnapshot MergeSnapshots(
    const iotdb::obs::MetricsSnapshot& a,
    const iotdb::obs::MetricsSnapshot& b);

/// Lookups into a registry snapshot that read missing instruments as 0.
uint64_t CounterOf(const iotdb::obs::MetricsSnapshot& snap,
                   const std::string& name);
double HistPercentile(const iotdb::obs::MetricsSnapshot& snap,
                      const std::string& name, double p);
uint64_t HistCount(const iotdb::obs::MetricsSnapshot& snap,
                   const std::string& name);

/// a / b, or 0 when b is 0.
double Ratio(double a, double b);

}  // namespace kitbench

#endif  // KITBENCH_LIB_STATS_H_
