#ifndef IOTDB_IOT_METRICS_H_
#define IOTDB_IOT_METRICS_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace iotdb {
namespace iot {

/// Timing facts of one measured workload execution.
struct RunMetrics {
  uint64_t kvps_ingested = 0;   // N_i of the paper
  uint64_t ts_start_micros = 0;  // TS_start,i
  uint64_t ts_end_micros = 0;    // TS_end,i

  /// True when the window is well-formed (end strictly after start). An
  /// inverted or empty window means broken clock plumbing; IoTps() over it
  /// would report a fake rate, so Validate() makes it a hard error.
  bool HasValidWindow() const { return ts_end_micros > ts_start_micros; }

  /// InvalidArgument with both timestamps when the window is inverted or
  /// empty; surfaced in the FDR instead of a silent zero rate.
  Status Validate() const;

  /// Signed on purpose: an inverted window yields a negative duration
  /// instead of a huge wrapped unsigned one.
  double ElapsedSeconds() const {
    return (static_cast<double>(ts_end_micros) -
            static_cast<double>(ts_start_micros)) /
           1e6;
  }

  /// Equation 4: the effective ingestion rate of this run. Callers must
  /// Validate() first; on an invalid window this returns 0 rather than
  /// garbage, but 0 is not a meaningful rate.
  double IoTps() const {
    double elapsed = ElapsedSeconds();
    return elapsed <= 0 ? 0.0
                        : static_cast<double>(kvps_ingested) / elapsed;
  }
};

/// Selects the performance run between the two measured runs: the one
/// reporting the lower IoTps (the conservative choice the spec's
/// tie-breaking reduces to when both runs ingest the same kvp count).
int PerformanceRunIndex(const RunMetrics& run1, const RunMetrics& run2);

/// Equation 5: price-performance in $ per IoTps.
double PricePerformance(double total_cost_usd, const RunMetrics& run);

}  // namespace iot
}  // namespace iotdb

#endif  // IOTDB_IOT_METRICS_H_
