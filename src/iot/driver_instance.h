#ifndef IOTDB_IOT_DRIVER_INSTANCE_H_
#define IOTDB_IOT_DRIVER_INSTANCE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/clock.h"
#include "common/status.h"
#include "iot/data_generator.h"
#include "iot/query.h"
#include "iot/rules.h"
#include "obs/snapshot.h"
#include "ycsb/db.h"

namespace iotdb {
namespace iot {

/// Configuration of one TPCx-IoT driver instance (one simulated power
/// substation).
struct DriverOptions {
  std::string substation_key;
  /// This driver's share of the total kvps (Equation 3).
  uint64_t total_kvps = 0;
  /// Client-side write buffer, in kvps per flush (the HBase client write
  /// buffer analogue).
  size_t batch_size = 200;
  uint64_t seed = 1;
  Clock* clock = nullptr;  // defaults to Clock::Real()
};

/// Outcome of one driver instance's workload execution.
struct DriverResult {
  Status status;
  std::string substation_key;
  uint64_t kvps_ingested = 0;
  uint64_t queries_executed = 0;
  uint64_t query_rows_read = 0;  // across both windows of every query
  uint64_t start_micros = 0;
  uint64_t end_micros = 0;
  obs::HistogramSnapshot query_latency_micros;

  double ElapsedSeconds() const {
    return static_cast<double>(end_micros - start_micros) / 1e6;
  }
  double IngestRate() const {
    double s = ElapsedSeconds();
    return s <= 0 ? 0.0 : static_cast<double>(kvps_ingested) / s;
  }
  double AvgRowsPerQuery() const {
    return queries_executed == 0
               ? 0.0
               : static_cast<double>(query_rows_read) / queries_executed;
  }
};

/// One TPCx-IoT driver instance: ingests this substation's sensor stream in
/// batches while issuing 5 dashboard queries for every 10,000 readings,
/// concurrently with ingestion (the queries run interleaved on the driver's
/// thread, against data being written by all drivers).
class DriverInstance {
 public:
  DriverInstance(const DriverOptions& options, ycsb::DB* db);

  /// Blocking; returns when this driver's kvps share is ingested, an error
  /// occurs, or *abort becomes true. Safe to call from its own thread.
  DriverResult Run(std::atomic<bool>* abort = nullptr);

 private:
  DriverOptions options_;
  ycsb::DB* db_;
};

}  // namespace iot
}  // namespace iotdb

#endif  // IOTDB_IOT_DRIVER_INSTANCE_H_
