#include "obs/snapshot.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace iotdb {
namespace obs {

// ---------------------------------------------------------------------------
// HistogramSnapshot
// ---------------------------------------------------------------------------

void HistogramSnapshot::Record(uint64_t value) {
  min = count == 0 ? value : std::min(min, value);
  max = std::max(max, value);
  ++count;
  sum += value;
  const auto index =
      static_cast<uint32_t>(LatencyHistogram::BucketIndexFor(value));
  auto it = std::lower_bound(
      buckets.begin(), buckets.end(), index,
      [](const auto& bucket, uint32_t i) { return bucket.first < i; });
  if (it != buckets.end() && it->first == index) {
    ++it->second;
  } else {
    buckets.emplace(it, index, 1);
  }
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (count == 0 || (other.count > 0 && other.min < min)) min = other.min;
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  std::map<uint32_t, uint64_t> merged(buckets.begin(), buckets.end());
  for (const auto& [index, n] : other.buckets) merged[index] += n;
  buckets.assign(merged.begin(), merged.end());
}

double HistogramSnapshot::Mean() const {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target sample, 1-based; interpolate within its bucket by
  // rank position, then clamp to the observed extremes.
  const double target = p / 100.0 * static_cast<double>(count);
  double seen = 0;
  for (const auto& [index, n] : buckets) {
    if (seen + static_cast<double>(n) >= target) {
      const double lo =
          static_cast<double>(LatencyHistogram::BucketLowerBound(index));
      const double hi =
          static_cast<double>(LatencyHistogram::BucketUpperBound(index));
      const double within =
          n == 0 ? 0.0 : (target - seen) / static_cast<double>(n);
      double value = lo + (hi - lo) * within;
      value = std::max(value, static_cast<double>(min));
      value = std::min(value, static_cast<double>(max));
      return value;
    }
    seen += static_cast<double>(n);
  }
  return static_cast<double>(max);
}

HistogramSnapshot HistogramSnapshot::DeltaSince(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot delta;
  delta.count = count >= earlier.count ? count - earlier.count : 0;
  delta.sum = sum >= earlier.sum ? sum - earlier.sum : 0;
  delta.min = min;
  delta.max = max;
  std::map<uint32_t, uint64_t> earlier_buckets(earlier.buckets.begin(),
                                               earlier.buckets.end());
  for (const auto& [index, n] : buckets) {
    auto it = earlier_buckets.find(index);
    uint64_t before = it == earlier_buckets.end() ? 0 : it->second;
    if (n > before) delta.buckets.emplace_back(index, n - before);
  }
  return delta;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

MetricsSnapshot MetricsSnapshot::DeltaSince(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta;
  for (const auto& [name, value] : counters) {
    auto it = earlier.counters.find(name);
    uint64_t before = it == earlier.counters.end() ? 0 : it->second;
    delta.counters[name] = value >= before ? value - before : 0;
  }
  delta.gauges = gauges;
  for (const auto& [name, hist] : histograms) {
    auto it = earlier.histograms.find(name);
    delta.histograms[name] =
        it == earlier.histograms.end() ? hist : hist.DeltaSince(it->second);
  }
  return delta;
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out;
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    out += std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out += ":{\"count\":" + std::to_string(hist.count);
    out += ",\"sum\":" + std::to_string(hist.sum);
    out += ",\"min\":" + std::to_string(hist.min);
    out += ",\"max\":" + std::to_string(hist.max);
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (const auto& [index, n] : hist.buckets) {
      if (!first_bucket) out.push_back(',');
      first_bucket = false;
      out += "[" + std::to_string(index) + "," + std::to_string(n) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string MetricsSnapshot::ToTable() const {
  std::string out;
  char line[256];
  for (const auto& [name, value] : counters) {
    snprintf(line, sizeof(line), "  %-52s %14llu\n", name.c_str(),
             static_cast<unsigned long long>(value));
    out += line;
  }
  for (const auto& [name, value] : gauges) {
    snprintf(line, sizeof(line), "  %-52s %14lld  (gauge)\n", name.c_str(),
             static_cast<long long>(value));
    out += line;
  }
  for (const auto& [name, hist] : histograms) {
    snprintf(line, sizeof(line),
             "  %-52s n=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f "
             "p99.9=%.1f max=%llu\n",
             name.c_str(), static_cast<unsigned long long>(hist.count),
             hist.Mean(), hist.Percentile(50), hist.Percentile(95),
             hist.Percentile(99), hist.Percentile(99.9),
             static_cast<unsigned long long>(hist.max));
    out += line;
  }
  return out;
}

}  // namespace obs
}  // namespace iotdb
