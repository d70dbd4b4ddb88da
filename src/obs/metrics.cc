#include "obs/metrics.h"

namespace iotdb {
namespace obs {

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

uint64_t LatencyHistogram::BucketLowerBound(size_t index) {
  if (index < kSubBuckets) return index;
  const size_t octave = index / kSubBuckets;  // >= 1
  const uint64_t sub = index % kSubBuckets;
  return (kSubBuckets + sub) << (octave - 1);
}

uint64_t LatencyHistogram::BucketUpperBound(size_t index) {
  if (index + 1 >= kNumBuckets) return std::numeric_limits<uint64_t>::max();
  return BucketLowerBound(index + 1) - 1;
}

double LatencyHistogram::Mean() const {
  uint64_t n = Count();
  return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
}

double LatencyHistogram::Percentile(double p) const {
  return TakeSnapshot().Percentile(p);
}

HistogramSnapshot LatencyHistogram::TakeSnapshot() const {
  HistogramSnapshot snap;
  snap.count = Count();
  snap.sum = Sum();
  snap.min = Min();
  snap.max = Max();
  for (size_t i = 0; i < kNumBuckets; ++i) {
    uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n > 0) snap.buckets.emplace_back(static_cast<uint32_t>(i), n);
  }
  return snap;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms[name] = hist->TakeSnapshot();
  }
  return snap;
}

}  // namespace obs
}  // namespace iotdb
