#ifndef KITBENCH_LIB_DASH_MODEL_H_
#define KITBENCH_LIB_DASH_MODEL_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "iot/query.h"
#include "iot/sensor.h"

namespace kitbench {

/// Shape of the data the dashboard workload preloads: per substation, a
/// stream of readings stamped by a manual clock advanced a fixed step per
/// reading, round-robin over the sensor catalog.
struct DashShape {
  uint64_t start_micros = 1'600'000'000'000'000ull;  // clock at load start
  uint64_t step_micros = 250;  // clock advance before each reading
  uint64_t readings_per_substation = 100'000;
  uint64_t window_micros = 5'000'000;  // the kit's 5 s query window
  uint64_t sensors = iotdb::iot::SensorCatalog::kSensorsPerSubstation;

  /// Time between two readings of one sensor.
  uint64_t SensorPeriodMicros() const { return step_micros * sensors; }
  /// Timestamp of the first and the last reading of a substation.
  uint64_t FirstMicros() const { return start_micros + step_micros; }
  uint64_t LastMicros() const {
    return start_micros + step_micros * readings_per_substation;
  }
  /// Rows one 5 s window of one sensor holds when it lies inside the
  /// loaded span; a query reads two such windows.
  uint64_t RowsPerWindow() const {
    return window_micros / SensorPeriodMicros();
  }
  uint64_t RowsPerQuery() const { return 2 * RowsPerWindow(); }
  /// The latest and earliest start of a historic window that still lies
  /// wholly inside every sensor's loaded readings and before the recent
  /// window.
  uint64_t EarliestPastStart() const {
    return FirstMicros() + SensorPeriodMicros();
  }
  uint64_t LatestPastStart() const {
    return LastMicros() + 1 - 2 * window_micros;
  }
};

/// Builds a dashboard query the way the kit does, but over the preloaded
/// span: the recent window is the last 5 s of the load, the historic
/// window starts uniformly in [EarliestPastStart, LatestPastStart].
iotdb::iot::Query MakeDashQuery(const DashShape& shape,
                                const std::vector<std::string>& substations,
                                const iotdb::iot::SensorCatalog& catalog,
                                iotdb::Random* rng);

/// The expected answer of every query, recomputed from the regenerated
/// readings rather than read back from the store.
class DashModel {
 public:
  /// Records one reading (value as decoded from its encoded kvp). Readings
  /// of one sensor must arrive in timestamp order.
  void Add(const std::string& substation, const std::string& sensor,
           uint64_t timestamp_micros, double value);

  /// Aggregate of [start, end) for one sensor, accumulated in timestamp
  /// order as QueryExecutor does, so sums agree bit for bit.
  iotdb::iot::WindowAggregate Window(const std::string& substation,
                                     const std::string& sensor,
                                     uint64_t start_micros,
                                     uint64_t end_micros) const;

  /// Rows and compared values the query must return.
  iotdb::iot::QueryResult Expected(const iotdb::iot::Query& query) const;

  uint64_t readings() const { return readings_; }

 private:
  using Series = std::vector<std::pair<uint64_t, double>>;
  std::map<std::pair<std::string, std::string>, Series> series_;
  uint64_t readings_ = 0;
};

/// True when `got` has exactly the expected row count, window counts,
/// min/max and compared values of `want`.
bool SameAnswer(const iotdb::iot::QueryResult& got,
                const iotdb::iot::QueryResult& want);

}  // namespace kitbench

#endif  // KITBENCH_LIB_DASH_MODEL_H_
