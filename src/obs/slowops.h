#ifndef IOTDB_OBS_SLOWOPS_H_
#define IOTDB_OBS_SLOWOPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/attribution.h"

namespace iotdb {
namespace obs {

/// A bounded flight recorder of the K slowest attributed ops of the
/// current run, each with its full stage breadcrumb. Offer() is called at
/// every op completion but stays cheap under load: one relaxed load of the
/// current admission threshold rejects the common (fast) op before any
/// lock; only ops slow enough to enter the top-K take the mutex.
///
/// StartRun() clears and (re)arms the recorder; the benchmark driver arms
/// it per workload execution so the FDR table and `--slowops-out` describe
/// one run, not the process's whole history.
class SlowOpRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 32;

  struct Record {
    OpBreadcrumb breadcrumb;
  };

  static void StartRun(size_t capacity = kDefaultCapacity);
  static void StopRun();

  /// Considers one completed op for the top-K. No-op unless armed.
  static void Offer(const OpBreadcrumb& breadcrumb);

  /// The retained ops, slowest first. Safe to call while armed.
  static std::vector<Record> TakeSnapshot();

  /// slowops.json: {"slow_ops":[{"op","trace","total_micros","kvps",
  /// "stage_sum_micros","stages":{...}}...]} slowest first.
  static std::string ToJson();
  /// Same format over an already-captured snapshot (e.g. a
  /// WorkloadExecution's records, serialized after later runs re-armed the
  /// live recorder).
  static std::string ToJson(const std::vector<Record>& records);
};

}  // namespace obs
}  // namespace iotdb

#endif  // IOTDB_OBS_SLOWOPS_H_
