#ifndef IOTDB_IOT_EXPERIMENTS_H_
#define IOTDB_IOT_EXPERIMENTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace iotdb {
namespace iot {

/// Calibrated constants of the simulated testbed (the paper's 2/4/8-node
/// Cisco UCS B200 M4 cluster running HBase 1.2.0 — hardware we do not
/// have). Times in microseconds. See EXPERIMENTS.md for the calibration
/// procedure: the four 1-substation measurements fix the per-round costs;
/// everything else is prediction.
struct HardwareProfile {
  /// Client write buffer flushed per round, in kvps.
  uint64_t client_batch_kvps = 1000;

  /// Client-side cost per round (driver JVM marshalling etc.).
  double client_round_fixed_us = 3900;
  /// Client-side cost per contacted node per round (RPC dispatch); the
  /// driver flushes region batches sequentially.
  double client_per_node_us = 375;

  /// WAL group commit: fixed sync cost per commit and cost per physical
  /// kvp. The fixed cost amortises across concurrent substations (the
  /// super-linear-scaling mechanism, Figure 10): the model divides it by
  /// the substation count analytically because the measured system batches
  /// far more aggressively at low client counts than event-level overlap
  /// alone reproduces (JIT, region splits, HDFS pipelining fold in here).
  double wal_sync_fixed_us = 7000;
  bool amortize_wal_sync = true;
  double wal_per_kvp_us = 0.3;
  double wal_gather_window_us = 300;

  /// Storage path (memstore apply + flush + compaction steady state): a
  /// serial resource per node. Fixed cost per fragment plus cost per
  /// physical kvp (i.e., after replication).
  double io_fixed_us = 3300;
  double io_per_kvp_us = 5.1;

  /// Volume-triggered flush/compaction stall: after this many physical
  /// bytes a node's io path blocks for the given duration. Source of the
  /// >1 s query maxima and CoV > 1 (Figure 14), and ~1.6 us/kvp of
  /// amortised io load at saturation.
  uint64_t flush_stall_every_bytes = 1536ull << 20;
  double flush_stall_us = 1000000;

  /// Query path: fixed cost plus per-row cost, served by the node's read
  /// path, plus a client-visible RPC overhead.
  double query_fixed_us = 7000;
  double query_per_row_us = 6.0;
  double query_rpc_us = 1500;

  /// Nominal replication factor (effective = min(nodes, this)).
  int replication = 3;

  /// How a substation's 200 sensors map to nodes. kMultinomial is the
  /// HBase-like hash placement; kRoundRobin is the perfectly-balanced
  /// ablation (DESIGN.md ablation #4); kSingleNode pins a substation to one
  /// node (ablation #2).
  enum class Placement { kMultinomial, kRoundRobin, kSingleNode };
  Placement placement = Placement::kMultinomial;

  /// When true the client flushes all per-node fragments concurrently
  /// instead of sequentially (ablation #2 companion switch).
  bool parallel_fanout = false;

  /// The profile calibrated against the paper's testbed.
  static HardwareProfile UcsBlade();
};

/// One experiment configuration: a full TPCx-IoT benchmark iteration
/// (warmup + measured) on the simulated cluster.
struct ExperimentConfig {
  int nodes = 8;
  int substations = 1;
  uint64_t total_kvps = 50000000;
  uint64_t seed = 2018;
  HardwareProfile profile = HardwareProfile::UcsBlade();
  /// Divides total_kvps (and proportionally the run-time floors) for quick
  /// runs; 1 = paper scale.
  uint64_t scale_divisor = 1;
};

/// Query latency summary (microseconds) — the Figure 13/14 metrics.
struct QueryLatencySummary {
  uint64_t count = 0;
  uint64_t min_us = 0;
  uint64_t max_us = 0;
  double mean_us = 0;
  double stddev_us = 0;
  double p95_us = 0;

  double CoV() const { return mean_us <= 0 ? 0 : stddev_us / mean_us; }
};

/// Aggregates of one simulated workload execution.
struct ExecutionStats {
  double elapsed_seconds = 0;
  uint64_t kvps_ingested = 0;
  uint64_t queries = 0;
  double avg_rows_per_query = 0;
  QueryLatencySummary query_latency;
  /// Per-substation ingest completion times, seconds (Figure 15).
  std::vector<double> driver_seconds;

  double IoTps() const {
    return elapsed_seconds <= 0 ? 0 : kvps_ingested / elapsed_seconds;
  }
};

/// Result of one experiment (Table I row).
struct ExperimentResult {
  ExperimentConfig config;
  ExecutionStats warmup;
  ExecutionStats measured;

  double SystemIoTps() const { return measured.IoTps(); }
  double PerSensorIoTps() const;
  bool MeetsRateRequirement() const;
  bool MeetsTimeRequirement() const;
  double MinDriverSeconds() const;
  double MaxDriverSeconds() const;
  double AvgDriverSeconds() const;
};

/// Runs one experiment in virtual time.
ExperimentResult RunExperiment(const ExperimentConfig& config);

/// The paper's Table I sweep: substations {1,2,4,8,16,32,48} with the
/// paper's row counts, on `nodes` nodes.
std::vector<ExperimentResult> RunSubstationSweep(int nodes,
                                                 uint64_t scale_divisor);

/// Paper row counts per substation count (Table I column 2), in kvps.
uint64_t PaperRowsFor(int substations);

/// Simple text (de)serialisation so bench binaries sharing the same runs
/// don't recompute them. Cache format is versioned; a mismatch returns
/// NotFound and the caller recomputes.
Status SaveResultsCache(const std::string& path,
                        const std::vector<ExperimentResult>& results);
Result<std::vector<ExperimentResult>> LoadResultsCache(
    const std::string& path);

/// Loads the sweep for `nodes` from `cache_path` or runs it and saves.
std::vector<ExperimentResult> SweepCached(int nodes, uint64_t scale_divisor,
                                          const std::string& cache_path);

}  // namespace iot
}  // namespace iotdb

#endif  // IOTDB_IOT_EXPERIMENTS_H_
