#include "lib/stats.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace kitbench {

namespace {

// Nearest rank (1-based) of the p-th percentile among n samples.
uint64_t NearestRank(uint64_t n, double p) {
  if (n == 0) return 0;
  // The slack keeps p=99.9 of 10000 at rank 9990 despite binary rounding.
  double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-6);
  return std::clamp<uint64_t>(static_cast<uint64_t>(rank), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), p) - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

uint64_t SamplesBeyond(uint64_t n, double p) {
  return n - NearestRank(n, p);
}

double TailPercentileFor(uint64_t n) {
  for (double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (n > 0 && SamplesBeyond(n, p) >= 10) return p;
  }
  return 0;
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  s.p50 = sorted[NearestRank(s.count, 50) - 1];
  s.tail_pct = TailPercentileFor(s.count);
  if (s.tail_pct > 0) s.tail = sorted[NearestRank(s.count, s.tail_pct) - 1];
  return s;
}

double OpCount::ErrorRate() const {
  if (attempted == 0) return 1.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

iotdb::obs::HistogramSnapshot MergeHistograms(
    const iotdb::obs::HistogramSnapshot& a,
    const iotdb::obs::HistogramSnapshot& b) {
  if (a.count == 0) return b;
  if (b.count == 0) return a;
  iotdb::obs::HistogramSnapshot out;
  out.count = a.count + b.count;
  out.sum = a.sum + b.sum;
  out.min = std::min(a.min, b.min);
  out.max = std::max(a.max, b.max);
  std::map<uint32_t, uint64_t> buckets;
  for (const auto& [index, count] : a.buckets) buckets[index] += count;
  for (const auto& [index, count] : b.buckets) buckets[index] += count;
  out.buckets.assign(buckets.begin(), buckets.end());
  return out;
}

iotdb::obs::MetricsSnapshot MergeSnapshots(
    const iotdb::obs::MetricsSnapshot& a,
    const iotdb::obs::MetricsSnapshot& b) {
  iotdb::obs::MetricsSnapshot out = a;
  for (const auto& [name, value] : b.counters) out.counters[name] += value;
  for (const auto& [name, value] : b.gauges) out.gauges[name] = value;
  for (const auto& [name, hist] : b.histograms) {
    out.histograms[name] = MergeHistograms(out.histograms[name], hist);
  }
  return out;
}

uint64_t CounterOf(const iotdb::obs::MetricsSnapshot& snap,
                   const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

double HistPercentile(const iotdb::obs::MetricsSnapshot& snap,
                      const std::string& name, double p) {
  auto it = snap.histograms.find(name);
  if (it == snap.histograms.end() || it->second.count == 0) return 0;
  return it->second.Percentile(p);
}

uint64_t HistCount(const iotdb::obs::MetricsSnapshot& snap,
                   const std::string& name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0 : it->second.count;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

}  // namespace kitbench
