#ifndef IOTDB_IOT_CONFIG_H_
#define IOTDB_IOT_CONFIG_H_

#include "common/properties.h"
#include "common/result.h"
#include "iot/benchmark_driver.h"

namespace iotdb {
namespace iot {

/// Builds a BenchmarkConfig from kit-style properties. Recognised keys
/// (defaults in parentheses):
///
///   driver_instances      (1)      number of simulated power substations
///   total_kvps            (1e9)    kvps per workload execution
///   batch_size            (200)    client write buffer in kvps
///   seed                  (42)
///   min_run_seconds       (1800)
///   min_per_sensor_rate   (20)
///   min_rows_per_query    (200)
///   enforce_query_rows    (false)
///   skip_warmup           (false)
///   fault.kill_node       (-1)     node crashed during measured runs
///   fault.at_ops          (0)      acked kvps before the crash
///   fault.restart_after_ops (0)    acked kvps from crash to restart
///                                  (0 = restart at end of execution)
///   fault.corrupt_sstable (-1)     node whose SSTable gets bit-rot during
///                                  measured runs (-1 = no corruption)
///   fault.corrupt_at_ops  (0)      acked kvps before the bit flips
///   fault.corrupt_bits    (8)      number of random bits flipped
///   fault.corrupt_target  (sstable) victim file class: sstable or vlog
///                                  (a flush writes the vlog files)
///   fault.net_partition_node (-1)  node partitioned off mid-run
///   fault.net_partition_at_ops (0) acked kvps before the partition
///   fault.net_heal_after_ops (0)   acked kvps from partition to heal
///                                  (0 = heal at end of execution)
///   fault.net_delay_node  (-1)     node whose messages are delayed
///   fault.net_delay_ms    (0)      one-way delay for that node
///   fault.net_drop_pct    (0)      message drop probability [0,1]
///   fault.net_dup_pct     (0)      message duplicate probability [0,1]
///   fault.net_reorder_pct (0)      message reorder probability [0,1]
///
/// Unknown keys are rejected so typos in sponsor configs surface instead
/// of silently using defaults (the FDR must disclose every tunable).
Result<BenchmarkConfig> LoadBenchmarkConfig(const Properties& props);

/// Serialises a config back to kit properties (for the FDR and the file
/// check manifest).
Properties BenchmarkConfigToProperties(const BenchmarkConfig& config);

}  // namespace iot
}  // namespace iotdb

#endif  // IOTDB_IOT_CONFIG_H_
