#ifndef IOTDB_YCSB_MEASUREMENTS_H_
#define IOTDB_YCSB_MEASUREMENTS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "obs/snapshot.h"

namespace iotdb {
namespace ycsb {

/// Thread-safe per-operation-type latency measurements (YCSB's measurement
/// subsystem). Latencies are recorded in microseconds.
class Measurements {
 public:
  Measurements() = default;
  Measurements(const Measurements&) = delete;
  Measurements& operator=(const Measurements&) = delete;

  void Record(const std::string& op, uint64_t latency_micros);
  void RecordFailure(const std::string& op);

  /// Snapshot of one operation type's histogram (zeroed if unseen).
  obs::HistogramSnapshot GetHistogram(const std::string& op) const;
  uint64_t GetFailures(const std::string& op) const;

  /// All op types seen so far.
  std::map<std::string, obs::HistogramSnapshot> Snapshot() const;

  /// Merges another Measurements into this one.
  void Merge(const Measurements& other);

  void Reset();

  /// Multi-line "op count mean p95 p99 max" report.
  std::string Report() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, obs::HistogramSnapshot> histograms_;
  std::map<std::string, uint64_t> failures_;
};

}  // namespace ycsb
}  // namespace iotdb

#endif  // IOTDB_YCSB_MEASUREMENTS_H_
