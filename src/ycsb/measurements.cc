#include "ycsb/measurements.h"

#include <cstdio>

#include "obs/metrics.h"

namespace iotdb {
namespace ycsb {

void Measurements::Record(const std::string& op, uint64_t latency_micros) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    histograms_[op].Record(latency_micros);
  }
  // Mirror into the global registry so per-op-type latency shows up in
  // --metrics-out snapshots alongside storage/cluster instruments.
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global()
        .GetHistogram("ycsb.op." + op + "_micros")
        ->Record(latency_micros);
  }
}

void Measurements::RecordFailure(const std::string& op) {
  std::lock_guard<std::mutex> lock(mu_);
  failures_[op]++;
}

obs::HistogramSnapshot Measurements::GetHistogram(
    const std::string& op) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(op);
  return it == histograms_.end() ? obs::HistogramSnapshot() : it->second;
}

uint64_t Measurements::GetFailures(const std::string& op) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = failures_.find(op);
  return it == failures_.end() ? 0 : it->second;
}

std::map<std::string, obs::HistogramSnapshot> Measurements::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_;
}

void Measurements::Merge(const Measurements& other) {
  auto snapshot = other.Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [op, hist] : snapshot) {
    histograms_[op].Merge(hist);
  }
}

void Measurements::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_.clear();
  failures_.clear();
}

std::string Measurements::Report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char line[256];
  for (const auto& [op, hist] : histograms_) {
    snprintf(line, sizeof(line),
             "[%s] count=%llu mean=%.1fus p95=%.1fus p99=%.1fus max=%lluus\n",
             op.c_str(), static_cast<unsigned long long>(hist.count),
             hist.Mean(), hist.Percentile(95), hist.Percentile(99),
             static_cast<unsigned long long>(hist.max));
    out += line;
  }
  return out;
}

}  // namespace ycsb
}  // namespace iotdb
