#ifndef IOTDB_IOT_BENCHMARK_DRIVER_H_
#define IOTDB_IOT_BENCHMARK_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/result.h"
#include "iot/checks.h"
#include "iot/driver_instance.h"
#include "iot/metrics.h"
#include "iot/pricing.h"
#include "iot/rules.h"
#include "obs/sampler.h"
#include "obs/slowops.h"
#include "obs/snapshot.h"

namespace iotdb {
namespace iot {

/// Benchmark invocation parameters: the two arguments of the kit (§III-E)
/// plus reproduction-scale knobs.
struct BenchmarkConfig {
  /// Number of TPCx-IoT driver instances == simulated power substations.
  int num_driver_instances = 1;
  /// Total kvps to ingest per workload execution (default 1 billion in the
  /// kit; scale down for in-process runs).
  uint64_t total_kvps = Rules::kDefaultTotalKvps;

  /// Client write buffer per driver, in kvps.
  size_t batch_size = 200;
  uint64_t seed = 42;

  /// Runtime requirement floors. Paper-faithful values are 1800 s and
  /// 20 kvps/s/sensor; in-process reproduction runs scale these down and
  /// must say so in the report.
  double min_run_seconds = Rules::kMinRunSeconds;
  double min_per_sensor_rate = Rules::kMinPerSensorRate;
  double min_rows_per_query = Rules::kMinKvpsPerQuery;
  bool enforce_query_rows = false;  // short runs rarely hit 10k readings

  /// Skips the (untimed) warmup execution; reproduction convenience only,
  /// a publishable run always warms up.
  bool skip_warmup = false;

  /// Cadence of the run-timeline sampler (`timeline.cadence_ms` in kit
  /// properties). Each execution runs its own obs::Sampler at this rate;
  /// the per-interval series feeds the FDR "Run timeline" section and
  /// timeline.json.
  uint64_t timeline_cadence_micros = 1'000'000;

  /// Repeatability tolerance between the two measured runs' IoTps, as a
  /// fraction. The TPC requires the repetition run to demonstrate a
  /// reproducible result; runs differing by more are flagged invalid.
  /// <= 0 disables the check (tiny reproduction runs are noisy).
  double repeatability_tolerance = 0;

  /// Kit files verified by the prerequisite file check.
  std::vector<KitFile> kit_files;
  storage::Env* kit_env = nullptr;  // env holding kit files

  /// Fault schedule, applied to measured executions only (warmups run
  /// clean). When fault_kill_node >= 0 the driver crashes that node once
  /// the cluster has acknowledged fault_at_ops primary kvps, and restarts
  /// it fault_restart_after_ops acknowledged kvps later (0 = at the end of
  /// the execution). A node that is still down when the drivers finish is
  /// always restarted so the data check sees a whole cluster.
  int fault_kill_node = -1;
  uint64_t fault_at_ops = 0;
  uint64_t fault_restart_after_ops = 0;

  /// Bit-rot schedule (`fault.corrupt_sstable` in kit properties), applied
  /// to measured executions only. When fault_corrupt_node >= 0 the driver
  /// flips fault_corrupt_bits seeded-random bits in a random live SSTable
  /// of that node once fault_corrupt_at_ops primary kvps are acknowledged
  /// (a memtable flush guarantees a victim file exists), then scrubs the
  /// victim store — quarantining the damaged file — and heals it with a
  /// region copy from healthy replicas, all while ingest keeps running.
  /// If the threshold is never reached the injection fires at the end of
  /// the execution so the schedule always exercises detection and repair.
  /// Requires the cluster to run with fault injection enabled.
  /// fault_corrupt_target picks the victim file class: "sstable" (default)
  /// or "vlog" (`fault.corrupt_target` in kit properties; every store has
  /// vlog files once a flush separated its large values, and the flush
  /// before the injection guarantees one).
  int fault_corrupt_node = -1;
  uint64_t fault_corrupt_at_ops = 0;
  int fault_corrupt_bits = 8;
  std::string fault_corrupt_target = "sstable";

  /// Network-fault schedule (`fault.net_*` in kit properties), applied to
  /// measured executions only. Requires the cluster to run with
  /// ClusterOptions::enable_net_fault_injection so replication flows
  /// through a FaultChannel. When fault_net_partition_node >= 0 the driver
  /// isolates that node (both directions) once fault_net_partition_at_ops
  /// primary kvps are acknowledged and heals it fault_net_heal_after_ops
  /// acknowledged kvps later (0 = at the end of the execution); the
  /// partition is always healed — and hinted writes drained — before the
  /// execution ends so the data check sees a converged cluster. The
  /// remaining knobs shape the whole run: a fixed per-message delivery
  /// delay into fault_net_delay_node, and drop / duplicate / reorder
  /// probabilities (fractions in [0, 1]) applied to every message.
  int fault_net_partition_node = -1;
  uint64_t fault_net_partition_at_ops = 0;
  uint64_t fault_net_heal_after_ops = 0;
  int fault_net_delay_node = -1;
  uint64_t fault_net_delay_ms = 0;
  double fault_net_drop_pct = 0;
  double fault_net_dup_pct = 0;
  double fault_net_reorder_pct = 0;

  /// True when any part of the network-fault schedule is configured.
  bool HasNetFaultSchedule() const {
    return fault_net_partition_node >= 0 || fault_net_delay_node >= 0 ||
           fault_net_drop_pct > 0 || fault_net_dup_pct > 0 ||
           fault_net_reorder_pct > 0;
  }
};

/// Corruption injected / detected / repaired during one workload execution
/// (the FDR "Data integrity" numbers). All zero for a clean run.
struct IntegrityStats {
  uint64_t files_corrupted = 0;    // files damaged by bit-rot injection
  uint64_t bits_flipped = 0;
  uint64_t files_quarantined = 0;  // corrupt files detected & moved aside
  uint64_t read_repairs = 0;       // reads re-served from healthy replicas
  uint64_t shard_recopies = 0;     // quarantines healed by region copy
  /// Corrupt WAL bytes dropped during recovery, per node id.
  std::vector<uint64_t> node_wal_dropped_bytes;

  uint64_t TotalWalDroppedBytes() const;
  bool Any() const;
};

/// One workload execution (warmup or measured): per-driver outcomes plus
/// aggregates.
struct WorkloadExecution {
  Status status;
  RunMetrics metrics;
  std::vector<DriverResult> drivers;
  /// Fault-recovery activity during this execution (crashes, restarts,
  /// hinted/replayed/re-copied kvps). All zero for a clean run.
  cluster::FaultRecoveryStats faults;
  /// Corruption injected/detected/repaired during this execution.
  IntegrityStats integrity;
  /// Quorum-write availability over exactly this execution's window
  /// (attempted / quorum-met / unavailable, straggler hints, deadline
  /// expiries). Feeds the FDR "Availability" section.
  cluster::AvailabilityStats availability;
  /// Messages injected-faulted by the network FaultChannel during this
  /// execution. All zero when net fault injection is off.
  cluster::NetFaultCounters net_faults;
  /// Registry delta over exactly this execution's window — the warm-up
  /// execution gets its own delta, so measured numbers are not polluted by
  /// warm-up traffic.
  obs::MetricsSnapshot obs_delta;
  /// Per-interval registry deltas over this execution's window, sampled at
  /// BenchmarkConfig::timeline_cadence_micros.
  obs::Timeline timeline;
  /// The K slowest ops of this execution with their full per-stage latency
  /// breadcrumbs (slowest first), captured by the slow-op flight recorder.
  /// Feeds the FDR "Latency attribution" slow-op table and --slowops-out.
  std::vector<obs::SlowOpRecorder::Record> slow_ops;

  uint64_t TotalQueries() const;
  uint64_t TotalQueryRows() const;
  double AvgRowsPerQuery() const;
  obs::HistogramSnapshot MergedQueryLatency() const;
  /// Fastest/slowest per-substation ingest completion (Figure 15).
  double MinDriverSeconds() const;
  double MaxDriverSeconds() const;
  double AvgDriverSeconds() const;
};

/// One benchmark iteration: warmup + measured execution + data check.
struct IterationResult {
  WorkloadExecution warmup;
  WorkloadExecution measured;
  CheckResult data_check;
};

/// Complete result of a benchmark run (two iterations).
struct BenchmarkResult {
  Status status;
  CheckResult file_check;
  CheckResult replication_check;
  IterationResult iterations[2];
  /// Index (0/1) of the performance run.
  int performance_run = 0;
  bool valid = false;
  std::string invalid_reason;

  /// Relative difference between the two measured runs' IoTps.
  double RepeatabilityDelta() const;

  const RunMetrics& PerformanceMetrics() const {
    return iterations[performance_run].measured.metrics;
  }
  double IoTps() const { return PerformanceMetrics().IoTps(); }
};

/// The TPCx-IoT benchmark driver (paper Figure 6 and §III-E): prerequisite
/// checks, two iterations of warmup + measured workload with a system
/// cleanup in between, data checks, and metric computation. Runs the real
/// workload (DriverInstance threads) against the in-process gateway
/// cluster.
class BenchmarkDriver {
 public:
  BenchmarkDriver(const BenchmarkConfig& config, cluster::Cluster* cluster);

  /// Runs the full benchmark. Blocking; spawns one thread per driver
  /// instance for each workload execution.
  BenchmarkResult Run();

  /// Runs a single workload execution (exposed for tests and examples).
  /// Applies the configured fault schedule, like a measured run.
  WorkloadExecution ExecuteWorkload();

 private:
  WorkloadExecution ExecuteWorkloadInternal(bool with_faults);

  /// Fires the bit-rot schedule once: flush the victim's memtable, flip
  /// bits in one of its SSTables, scrub (detect + quarantine), repair.
  void InjectScheduledCorruption();

  BenchmarkConfig config_;
  cluster::Cluster* cluster_;
  /// Injections whose damaged file was compacted away before the scrub
  /// could see it (the rot died with the obsolete table); re-rolled by
  /// InjectScheduledCorruption and discounted from IntegrityStats.
  std::atomic<uint64_t> vacuous_corrupt_files_{0};
  std::atomic<uint64_t> vacuous_corrupt_bits_{0};
};

/// Shard key function for gateway clusters running TPCx-IoT: routes by
/// (substation, sensor) prefix. Pass as ClusterOptions::shard_key_fn.
Slice TpcxIotShardKey(const Slice& row_key);

}  // namespace iot
}  // namespace iotdb

#endif  // IOTDB_IOT_BENCHMARK_DRIVER_H_
