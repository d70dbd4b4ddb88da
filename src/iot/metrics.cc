#include "iot/metrics.h"

namespace iotdb {
namespace iot {

Status RunMetrics::Validate() const {
  if (HasValidWindow()) return Status::OK();
  return Status::InvalidArgument(
      "invalid measurement window: ts_end (" +
      std::to_string(ts_end_micros) + " us) is not after ts_start (" +
      std::to_string(ts_start_micros) + " us)");
}

int PerformanceRunIndex(const RunMetrics& run1, const RunMetrics& run2) {
  // The spec picks run m with N_m < N_n; with equal kvp counts that reduces
  // to the slower (lower-IoTps) run.
  if (run1.kvps_ingested != run2.kvps_ingested) {
    return run1.kvps_ingested < run2.kvps_ingested ? 0 : 1;
  }
  return run1.IoTps() <= run2.IoTps() ? 0 : 1;
}

double PricePerformance(double total_cost_usd, const RunMetrics& run) {
  double iotps = run.IoTps();
  return iotps <= 0 ? 0.0 : total_cost_usd / iotps;
}

}  // namespace iot
}  // namespace iotdb
