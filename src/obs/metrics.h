#ifndef IOTDB_OBS_METRICS_H_
#define IOTDB_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/snapshot.h"

namespace iotdb {
namespace obs {

/// A monotonically increasing counter, sharded across cache lines so
/// concurrent writers from different threads do not bounce one line.
/// Add() is wait-free (one relaxed fetch_add); Value() sums the shards.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n) {
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 8;

  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  /// Threads are spread round-robin over the shards; the assignment is
  /// cached per thread so the hot path is one TLS read.
  static size_t ShardIndex() {
    static std::atomic<size_t> next{0};
    thread_local size_t index =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return index;
  }

  std::array<Shard, kShards> shards_;
};

/// A level that can go up and down (queue depths, in-flight work).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A lock-free latency histogram with logarithmic buckets: values below 16
/// are exact; above, each power of two is split into 16 sub-buckets, so the
/// relative bucket width (and the worst-case quantile error before
/// interpolation) is 1/16 = 6.25%. Covers the full uint64 range in 976
/// buckets (~8 KiB). Record() is wait-free except for the min/max CAS
/// loops, which converge immediately once the extremes stabilise.
class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;  // 16
  static constexpr size_t kNumBuckets =
      (64 - kSubBucketBits + 1) * kSubBuckets;  // 976

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(uint64_t value) {
    buckets_[BucketIndexFor(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t Min() const {
    uint64_t v = min_.load(std::memory_order_relaxed);
    return v == std::numeric_limits<uint64_t>::max() ? 0 : v;
  }
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const;
  double Percentile(double p) const;

  /// Copies the current state (sparse buckets) for export.
  HistogramSnapshot TakeSnapshot() const;

  /// Bucket geometry, shared with HistogramSnapshot::Percentile.
  static size_t BucketIndexFor(uint64_t value) {
    if (value < kSubBuckets) return static_cast<size_t>(value);
    const int msb = 63 - std::countl_zero(value);
    const int shift = msb - kSubBucketBits;
    const size_t octave = static_cast<size_t>(msb - kSubBucketBits + 1);
    return octave * kSubBuckets +
           ((value >> shift) & (kSubBuckets - 1));
  }
  static uint64_t BucketLowerBound(size_t index);
  /// Inclusive upper bound of the bucket.
  static uint64_t BucketUpperBound(size_t index);

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{std::numeric_limits<uint64_t>::max()};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// Process-wide instrument registry. Instruments are created on first use,
/// never removed, and returned as stable pointers — resolve once (at
/// construction / function-local static) and keep the pointer for the hot
/// path; GetXxx itself takes a mutex. The registry is always on: every
/// wired subsystem records unconditionally, and runs compare snapshot
/// deltas rather than zeroing instruments.
///
/// Naming convention: `layer.component.metric` with layers `storage`,
/// `cluster`, `driver`, `ycsb` (see DESIGN.md "Observability" for the
/// instrument catalog). The same name always maps to the same instrument;
/// counters, gauges and histograms live in separate namespaces.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every wired subsystem reports into.
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  /// Copies every instrument's current value.
  MetricsSnapshot TakeSnapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace obs
}  // namespace iotdb

#endif  // IOTDB_OBS_METRICS_H_
