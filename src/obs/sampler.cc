#include "obs/sampler.h"

#include <chrono>
#include <cmath>
#include <cstdio>

namespace iotdb {
namespace obs {

uint64_t TimelineInterval::CounterDelta(const std::string& name) const {
  auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

int64_t TimelineInterval::GaugeValue(const std::string& name) const {
  auto it = delta.gauges.find(name);
  return it == delta.gauges.end() ? 0 : it->second;
}

double TimelineInterval::Rate(const std::string& counter_name) const {
  double seconds = DurationSeconds();
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(CounterDelta(counter_name)) / seconds;
}

uint64_t Timeline::CounterTotal(const std::string& name) const {
  uint64_t total = 0;
  for (const TimelineInterval& interval : intervals) {
    total += interval.CounterDelta(name);
  }
  return total;
}

namespace {

void AppendDouble(double v, std::string* out) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  *out += buf;
}

/// Extracts "<id>" from "cluster.node<id>.primary_kvps"; empty when the
/// name does not match.
std::string NodeIdFromCounterName(const std::string& name) {
  constexpr const char kPrefix[] = "cluster.node";
  constexpr const char kSuffix[] = ".primary_kvps";
  const size_t prefix_len = sizeof(kPrefix) - 1;
  const size_t suffix_len = sizeof(kSuffix) - 1;
  if (name.size() <= prefix_len + suffix_len) return "";
  if (name.compare(0, prefix_len, kPrefix) != 0) return "";
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
    return "";
  }
  std::string id =
      name.substr(prefix_len, name.size() - prefix_len - suffix_len);
  for (char c : id) {
    if (c < '0' || c > '9') return "";
  }
  return id;
}

}  // namespace

std::string Timeline::ToJson() const {
  std::string out;
  out.reserve(intervals.size() * 256 + 128);
  out += "{\"cadence_micros\":";
  out += std::to_string(cadence_micros);
  out += ",\"dropped_intervals\":";
  out += std::to_string(dropped_intervals);
  out += ",\"intervals\":[";
  bool first = true;
  for (const TimelineInterval& interval : intervals) {
    if (!first) out += ',';
    first = false;

    uint64_t ingest = interval.CounterDelta("driver.ingest.kvps");
    double query_p50 = 0.0;
    double query_p99 = 0.0;
    uint64_t query_count = 0;
    auto query_it = interval.delta.histograms.find("driver.query_micros");
    if (query_it != interval.delta.histograms.end() &&
        query_it->second.count > 0) {
      query_count = query_it->second.count;
      query_p50 = query_it->second.Percentile(50.0);
      query_p99 = query_it->second.Percentile(99.0);
    }

    out += "{\"start_micros\":";
    out += std::to_string(interval.start_micros);
    out += ",\"end_micros\":";
    out += std::to_string(interval.end_micros);
    out += ",\"ingest_kvps\":";
    out += std::to_string(ingest);
    out += ",\"ingest_rate\":";
    AppendDouble(interval.Rate("driver.ingest.kvps"), &out);
    out += ",\"query_count\":";
    out += std::to_string(query_count);
    out += ",\"query_p50_micros\":";
    AppendDouble(query_p50, &out);
    out += ",\"query_p99_micros\":";
    AppendDouble(query_p99, &out);
    out += ",\"flush_bytes\":";
    out += std::to_string(
        interval.CounterDelta("storage.memtable.bytes_flushed"));
    out += ",\"compaction_bytes\":";
    out += std::to_string(
        interval.CounterDelta("storage.compaction.bytes_read") +
        interval.CounterDelta("storage.compaction.bytes_written"));
    out += ",\"vlog_bytes\":";
    out += std::to_string(
        interval.CounterDelta("storage.vlog.appended_bytes"));
    out += ",\"hint_queue_depth\":";
    out += std::to_string(interval.GaugeValue("cluster.hints.queue_depth"));
    out += ",\"stall_micros\":";
    out += std::to_string(
        interval.CounterDelta("storage.write.stall_micros"));
    out += ",\"node_kvps\":{";
    bool first_node = true;
    for (const auto& [name, value] : interval.delta.counters) {
      std::string id = NodeIdFromCounterName(name);
      if (id.empty()) continue;
      if (!first_node) out += ',';
      first_node = false;
      out += '"';
      out += id;
      out += "\":";
      out += std::to_string(value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

namespace {

// Folds `next` into `into` (its immediate predecessor in time): counter
// and histogram deltas add, gauges take the later level, and the merged
// interval covers both windows. Because consecutive deltas telescope, the
// merge is lossless for totals — only the interior boundary is lost.
void MergeIntervalInto(const TimelineInterval& next, TimelineInterval* into) {
  into->end_micros = next.end_micros;
  for (const auto& [name, value] : next.delta.counters) {
    into->delta.counters[name] += value;
  }
  for (const auto& [name, value] : next.delta.gauges) {
    into->delta.gauges[name] = value;
  }
  for (const auto& [name, hist] : next.delta.histograms) {
    into->delta.histograms[name].Merge(hist);
  }
}

}  // namespace

Sampler::Sampler(SamplerOptions options) : options_(options) {
  if (options_.clock == nullptr) options_.clock = Clock::Real();
  if (options_.capacity == 0) options_.capacity = 1;
  if (options_.cadence_micros == 0) options_.cadence_micros = 1'000'000;
}

Sampler::~Sampler() { Stop(); }

bool Sampler::Start() {
  std::unique_lock<std::mutex> lock(mu_);
  if (running_) return false;
  stop_requested_ = false;
  SampleLocked(lock);  // prime the base snapshot at the window's start
  running_ = true;
  thread_ = std::thread(&Sampler::ThreadLoop, this);
  return true;
}

void Sampler::Stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::unique_lock<std::mutex> lock(mu_);
  running_ = false;
  // Flush whatever part-interval accumulated since the last tick so the
  // timeline's counter totals telescope to the full run window.
  if (primed_ && options_.clock->NowMicros() > base_micros_) {
    SampleLocked(lock);
  }
}

bool Sampler::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void Sampler::SampleNow() {
  std::unique_lock<std::mutex> lock(mu_);
  SampleLocked(lock);
}

void Sampler::SampleLocked(std::unique_lock<std::mutex>& lock) {
  (void)lock;  // snapshotting is done under mu_; the registry locks itself
  MetricsSnapshot current = MetricsRegistry::Global().TakeSnapshot();
  uint64_t now = options_.clock->NowMicros();
  if (primed_) {
    TimelineInterval interval;
    interval.start_micros = base_micros_;
    interval.end_micros = now;
    interval.delta = current.DeltaSince(base_);
    if (ring_.size() == options_.capacity) {
      // Fold the second-oldest interval into the oldest instead of
      // discarding data: the ring stays bounded, interval granularity
      // coarsens at the old end, and counter totals still telescope to
      // the exact run total (the invariant the bench cross-check and the
      // FDR ingest accounting rely on).
      MergeIntervalInto(ring_[1], &ring_[0]);
      ring_.erase(ring_.begin() + 1);
      ++dropped_;
    }
    ring_.push_back(std::move(interval));
  }
  base_ = std::move(current);
  base_micros_ = now;
  primed_ = true;
}

void Sampler::ThreadLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, std::chrono::microseconds(options_.cadence_micros),
                 [this] { return stop_requested_; });
    if (stop_requested_) break;
    SampleLocked(lock);
  }
}

Timeline Sampler::TakeTimeline() const {
  std::lock_guard<std::mutex> lock(mu_);
  Timeline timeline;
  timeline.cadence_micros = options_.cadence_micros;
  timeline.dropped_intervals = dropped_;
  timeline.intervals.assign(ring_.begin(), ring_.end());
  return timeline;
}

}  // namespace obs
}  // namespace iotdb
