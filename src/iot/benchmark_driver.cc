#include "iot/benchmark_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ycsb/bindings.h"

namespace iotdb {
namespace iot {

Slice TpcxIotShardKey(const Slice& row_key) {
  return KvpCodec::ShardPrefixOf(row_key);
}

uint64_t WorkloadExecution::TotalQueries() const {
  uint64_t n = 0;
  for (const auto& d : drivers) n += d.queries_executed;
  return n;
}

uint64_t WorkloadExecution::TotalQueryRows() const {
  uint64_t n = 0;
  for (const auto& d : drivers) n += d.query_rows_read;
  return n;
}

double WorkloadExecution::AvgRowsPerQuery() const {
  uint64_t queries = TotalQueries();
  return queries == 0 ? 0.0
                      : static_cast<double>(TotalQueryRows()) / queries;
}

obs::HistogramSnapshot WorkloadExecution::MergedQueryLatency() const {
  obs::HistogramSnapshot merged;
  for (const auto& d : drivers) merged.Merge(d.query_latency_micros);
  return merged;
}

double WorkloadExecution::MinDriverSeconds() const {
  double best = 0;
  bool first = true;
  for (const auto& d : drivers) {
    double s = d.ElapsedSeconds();
    if (first || s < best) best = s;
    first = false;
  }
  return best;
}

double WorkloadExecution::MaxDriverSeconds() const {
  double worst = 0;
  for (const auto& d : drivers) worst = std::max(worst, d.ElapsedSeconds());
  return worst;
}

uint64_t IntegrityStats::TotalWalDroppedBytes() const {
  uint64_t total = 0;
  for (uint64_t bytes : node_wal_dropped_bytes) total += bytes;
  return total;
}

bool IntegrityStats::Any() const {
  return files_corrupted + bits_flipped + files_quarantined + read_repairs +
             shard_recopies + TotalWalDroppedBytes() >
         0;
}

double WorkloadExecution::AvgDriverSeconds() const {
  if (drivers.empty()) return 0;
  double total = 0;
  for (const auto& d : drivers) total += d.ElapsedSeconds();
  return total / static_cast<double>(drivers.size());
}

BenchmarkDriver::BenchmarkDriver(const BenchmarkConfig& config,
                                 cluster::Cluster* cluster)
    : config_(config), cluster_(cluster) {}

WorkloadExecution BenchmarkDriver::ExecuteWorkload() {
  return ExecuteWorkloadInternal(/*with_faults=*/true);
}

void BenchmarkDriver::InjectScheduledCorruption() {
  const int victim = config_.fault_corrupt_node;
  const bool vlog_target = (config_.fault_corrupt_target == "vlog");
  cluster::Node* node = cluster_->node(victim);
  if (node->is_down() || !node->is_running()) {
    IOTDB_LOG(Warn) << "fault schedule: corruption skipped, node "
                    << victim << " is down";
    return;
  }
  // Rot may land in any region of the node: the led one or a backed one.
  const std::vector<storage::KVStore*> regions = node->regions();
  // Flush so at least one live SSTable exists to damage. (Vlog files exist
  // as soon as separated values were written; the flush is harmless there.
  // A backed region has nothing to flush: its leader flushes and ships.)
  for (storage::KVStore* region : regions) {
    Status flush = region->FlushMemTable();
    if (!flush.ok()) {
      IOTDB_LOG(Warn) << "fault schedule: flush before corruption failed: "
                      << flush.ToString();
      return;
    }
  }
  // Bit-rot can land in a file that is retired before the scrub runs (a
  // table an in-flight compaction replaces, a vlog file it unlinks): the
  // rot dies with the obsolete file and never threatens live data. Such
  // vacuous injections are discounted and re-rolled so the schedule
  // reliably exercises detection.
  auto is_live = [&regions, vlog_target](const std::string& path) {
    for (storage::KVStore* region : regions) {
      if (vlog_target ? region->IsLiveVlogFile(path)
                      : region->IsLiveTableFile(path)) {
        return true;
      }
    }
    return false;
  };
  const uint64_t quarantined_before = node->files_quarantined();
  for (int attempt = 0; attempt < 5; ++attempt) {
    // Only files a region has installed are victims: an in-flight flush or
    // compaction output is on disk before it is live, so the scrub below
    // would skip it and a later background read would find the damage.
    // Each attempt starts at the next region, so rot reaches every one.
    Result<std::string> victim_file = Status::NotFound("no region");
    for (size_t i = 0; i < regions.size(); ++i) {
      storage::KVStore* region = regions[(attempt + i) % regions.size()];
      victim_file = cluster_->fault_env()->CorruptRandomFile(
          region->name(),
          vlog_target ? storage::FileClass::kVlog
                      : storage::FileClass::kSSTable,
          config_.fault_corrupt_bits, is_live);
      if (!victim_file.status().IsNotFound()) break;
    }
    if (!victim_file.ok()) {
      IOTDB_LOG(Warn) << "fault schedule: bit-rot injection failed: "
                      << victim_file.status().ToString();
      return;
    }
    IOTDB_LOG(Info) << "fault schedule: flipped "
                    << config_.fault_corrupt_bits << " bits in "
                    << victim_file.ValueOrDie();
    // Detect and heal while the workload keeps running: the scrub
    // quarantines the damaged file, the repair copies the affected region
    // from a healthy replica and lifts the node's read fence. A compaction
    // or an install that read the file first may have quarantined it
    // already: that is a detection too.
    uint64_t files_checked = 0;
    Status scrub;
    for (storage::KVStore* region : regions) {
      storage::ScrubReport report;
      scrub = region->VerifyIntegrity(&report);
      if (!scrub.ok()) break;
      files_checked += report.files_checked;
    }
    const uint64_t quarantined = node->files_quarantined() - quarantined_before;
    if (!scrub.ok()) {
      IOTDB_LOG(Warn) << "fault schedule: scrub failed: "
                      << scrub.ToString();
      break;
    }
    IOTDB_LOG(Info) << "fault schedule: scrub checked " << files_checked
                    << " files, quarantined " << quarantined;
    if (quarantined > 0) break;
    if (is_live(victim_file.ValueOrDie())) {
      // The damaged file is live yet verified clean: a genuine miss the
      // FDR must warn about, not a race to paper over.
      break;
    }
    IOTDB_LOG(Info) << "fault schedule: " << victim_file.ValueOrDie()
                    << " was compacted away before the scrub; re-rolling";
    vacuous_corrupt_files_.fetch_add(1, std::memory_order_relaxed);
    vacuous_corrupt_bits_.fetch_add(
        static_cast<uint64_t>(config_.fault_corrupt_bits),
        std::memory_order_relaxed);
  }
  Status repair = cluster_->RunPendingRepairs();
  if (!repair.ok()) {
    IOTDB_LOG(Warn) << "fault schedule: repair failed: " << repair.ToString();
  }
}

WorkloadExecution BenchmarkDriver::ExecuteWorkloadInternal(bool with_faults) {
  WorkloadExecution execution;
  const int p = config_.num_driver_instances;

  ycsb::ClusterDB db(cluster_);
  Clock* clock = Clock::Real();

  const cluster::FaultRecoveryStats faults_before =
      cluster_->GetFaultRecoveryStats();
  const bool fault_armed = with_faults && config_.fault_kill_node >= 0 &&
                           config_.fault_kill_node < cluster_->num_nodes();
  const bool corrupt_armed = with_faults && config_.fault_corrupt_node >= 0 &&
                             config_.fault_corrupt_node <
                                 cluster_->num_nodes() &&
                             cluster_->fault_env() != nullptr;
  cluster::FaultChannel* net = cluster_->net_fault_channel();
  const bool net_armed =
      with_faults && config_.HasNetFaultSchedule() && net != nullptr;
  const cluster::AvailabilityStats avail_before =
      cluster_->GetAvailabilityStats();
  cluster::NetFaultCounters net_before;
  if (net != nullptr) net_before = net->GetCounters();

  // Per-node corrupt-WAL-bytes-dropped-in-recovery, for the execution delta
  // (safe to read here and after the joins: no lifecycle transitions run).
  auto node_wal_dropped = [this]() {
    std::vector<uint64_t> dropped(
        static_cast<size_t>(cluster_->num_nodes()), 0);
    for (int i = 0; i < cluster_->num_nodes(); ++i) {
      for (storage::KVStore* region : cluster_->node(i)->regions()) {
        dropped[static_cast<size_t>(i)] +=
            region->GetStats().wal_recovery_dropped_bytes;
      }
    }
    return dropped;
  };
  const std::vector<uint64_t> wal_dropped_before = node_wal_dropped();
  storage::FaultCounters fault_counters_before;
  if (cluster_->fault_env() != nullptr) {
    fault_counters_before = cluster_->fault_env()->counters();
  }
  vacuous_corrupt_files_.store(0, std::memory_order_relaxed);
  vacuous_corrupt_bits_.store(0, std::memory_order_relaxed);

  std::vector<DriverResult> results(p);
  std::vector<std::thread> threads;
  threads.reserve(p);

  std::atomic<bool> drivers_done{false};
  std::thread fault_monitor;
  std::thread corruption_monitor;
  std::thread net_monitor;

  if (net_armed) {
    // Whole-run traffic shaping starts with the execution; the scheduled
    // partition is handled by the monitor thread below.
    if (config_.fault_net_delay_node >= 0) {
      const uint64_t delay_micros = config_.fault_net_delay_ms * 1000;
      net->SetEndpointDelay(config_.fault_net_delay_node, delay_micros,
                            delay_micros);
    }
    if (config_.fault_net_drop_pct > 0) {
      net->SetDropProbability(config_.fault_net_drop_pct);
    }
    if (config_.fault_net_dup_pct > 0) {
      net->SetDuplicateProbability(config_.fault_net_dup_pct);
    }
    if (config_.fault_net_reorder_pct > 0) {
      net->SetReorderProbability(config_.fault_net_reorder_pct,
                                 /*window_micros=*/5000);
    }
  }

  const obs::MetricsSnapshot obs_before =
      obs::MetricsRegistry::Global().TakeSnapshot();
  // Arm the slow-op flight recorder for exactly this execution's window, so
  // the warmup's slow tail does not crowd out the measured execution's.
  obs::SlowOpRecorder::StartRun();

  // Per-execution run timeline: the warmup and each measured execution get
  // their own interval series, so steady-state analysis can compare them.
  obs::SamplerOptions sampler_options;
  sampler_options.cadence_micros = config_.timeline_cadence_micros;
  sampler_options.clock = clock;
  obs::Sampler sampler(sampler_options);
  sampler.Start();

  execution.metrics.ts_start_micros = clock->NowMicros();
  for (int i = 0; i < p; ++i) {
    DriverOptions options;
    char key[32];
    snprintf(key, sizeof(key), "sub%04d", i + 1);
    options.substation_key = key;
    options.total_kvps = Rules::KvpsForDriver(i + 1, p, config_.total_kvps);
    options.batch_size = config_.batch_size;
    options.seed = config_.seed + static_cast<uint64_t>(i) * 7919;
    threads.emplace_back([&results, i, options, &db]() {
      DriverInstance driver(options, &db);
      results[i] = driver.Run();
    });
  }

  if (fault_armed) {
    // The acknowledged-ingest thresholds are measured in primary kvps since
    // the start of this execution; the monitor polls the counter rather
    // than hooking the hot write path.
    fault_monitor = std::thread([this, &drivers_done]() {
      const int victim = config_.fault_kill_node;
      const uint64_t base = cluster_->GetAggregateStats().primary_writes;
      bool killed = false;
      bool restarted = false;
      uint64_t killed_at_acked = 0;
      while (!drivers_done.load(std::memory_order_acquire)) {
        uint64_t acked = cluster_->GetAggregateStats().primary_writes - base;
        if (!killed && acked >= config_.fault_at_ops) {
          IOTDB_LOG(Info) << "fault schedule: crashing node " << victim
                          << " at " << acked << " acked kvps";
          Status s = cluster_->CrashNode(victim);
          if (!s.ok()) {
            IOTDB_LOG(Warn) << "fault schedule: crash failed: "
                            << s.ToString();
            return;
          }
          killed = true;
          killed_at_acked = acked;
        }
        if (killed && config_.fault_restart_after_ops > 0 &&
            acked >= killed_at_acked + config_.fault_restart_after_ops) {
          IOTDB_LOG(Info) << "fault schedule: restarting node " << victim
                          << " at " << acked << " acked kvps";
          Status s = cluster_->RestartNode(victim);
          if (!s.ok()) {
            IOTDB_LOG(Warn) << "fault schedule: restart failed: "
                            << s.ToString();
          }
          restarted = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Never leave the node down past the execution: the data check and
      // the next iteration expect a whole cluster.
      if (killed && !restarted) {
        IOTDB_LOG(Info) << "fault schedule: restarting node " << victim
                        << " at end of execution";
        Status s = cluster_->RestartNode(victim);
        if (!s.ok()) {
          IOTDB_LOG(Warn) << "fault schedule: restart failed: "
                          << s.ToString();
        }
      }
    });
  }

  if (corrupt_armed) {
    corruption_monitor = std::thread([this, &drivers_done]() {
      const uint64_t base = cluster_->GetAggregateStats().primary_writes;
      while (!drivers_done.load(std::memory_order_acquire)) {
        uint64_t acked = cluster_->GetAggregateStats().primary_writes - base;
        if (acked >= config_.fault_corrupt_at_ops) {
          InjectScheduledCorruption();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Ingest finished before the threshold: fire anyway so the schedule
      // always exercises detection and repair (disclosed in the FDR).
      InjectScheduledCorruption();
    });
  }

  if (net_armed && config_.fault_net_partition_node >= 0) {
    net_monitor = std::thread([this, net, &drivers_done]() {
      const int victim = config_.fault_net_partition_node;
      const uint64_t base = cluster_->GetAggregateStats().primary_writes;
      bool partitioned = false;
      uint64_t partitioned_at_acked = 0;
      while (!drivers_done.load(std::memory_order_acquire)) {
        uint64_t acked = cluster_->GetAggregateStats().primary_writes - base;
        if (!partitioned && acked >= config_.fault_net_partition_at_ops) {
          IOTDB_LOG(Info) << "fault schedule: partitioning node " << victim
                          << " at " << acked << " acked kvps";
          net->Isolate(victim);
          partitioned = true;
          partitioned_at_acked = acked;
        }
        if (partitioned && config_.fault_net_heal_after_ops > 0 &&
            acked >=
                partitioned_at_acked + config_.fault_net_heal_after_ops) {
          IOTDB_LOG(Info) << "fault schedule: healing partition of node "
                          << victim << " at " << acked << " acked kvps";
          net->Heal(victim);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Heal-at-end happens below for every net schedule; nothing to do.
    });
  }

  for (auto& thread : threads) thread.join();
  drivers_done.store(true, std::memory_order_release);
  if (fault_monitor.joinable()) fault_monitor.join();
  if (corruption_monitor.joinable()) corruption_monitor.join();
  if (net_monitor.joinable()) net_monitor.join();
  if (net_armed) {
    // Stop shaping and heal any surviving partition before the quiesce
    // below drains what the faults left behind.
    if (config_.fault_net_delay_node >= 0) {
      net->SetEndpointDelay(config_.fault_net_delay_node, 0, 0);
    }
    net->SetDropProbability(0);
    net->SetDuplicateProbability(0);
    net->SetReorderProbability(0, 0);
    net->HealAll();
  }
  // Quiesce the async replication plane inside the measured window: writes
  // return at quorum, so the tail of the run can still have laggard replica
  // applies and hinted rows in flight. Convergence cost is part of the run,
  // and the data check expects every acknowledged row to be replicated.
  Status drained = cluster_->WaitReplicationIdle();
  if (!drained.ok()) {
    IOTDB_LOG(Warn) << "end of execution: replication did not quiesce: "
                    << drained.ToString();
  }
  if (corrupt_armed) {
    // Quarantines surfaced after the monitor's repair pass (e.g. from a
    // late compaction read) must not leak past the execution: the data
    // check and the next iteration expect a fully healed cluster.
    Status repair = cluster_->RunPendingRepairs();
    if (!repair.ok()) {
      IOTDB_LOG(Warn) << "fault schedule: final repair failed: "
                      << repair.ToString();
    }
  }
  execution.metrics.ts_end_micros = clock->NowMicros();
  sampler.Stop();  // flushes the final partial interval
  execution.timeline = sampler.TakeTimeline();

  // DroppedSpans() mirrors the trace-buffer drop count into the
  // `obs.trace.dropped_spans` gauge, so the snapshot below (gauges pass
  // through DeltaSince as current values) carries it into the FDR.
  if (obs::TraceBuffer::Enabled()) obs::TraceBuffer::DroppedSpans();
  execution.obs_delta =
      obs::MetricsRegistry::Global().TakeSnapshot().DeltaSince(obs_before);
  execution.slow_ops = obs::SlowOpRecorder::TakeSnapshot();
  obs::SlowOpRecorder::StopRun();

  const cluster::FaultRecoveryStats faults_after =
      cluster_->GetFaultRecoveryStats();
  execution.faults.node_crashes =
      faults_after.node_crashes - faults_before.node_crashes;
  execution.faults.node_restarts =
      faults_after.node_restarts - faults_before.node_restarts;
  execution.faults.hinted_kvps =
      faults_after.hinted_kvps - faults_before.hinted_kvps;
  execution.faults.hint_replayed_kvps =
      faults_after.hint_replayed_kvps - faults_before.hint_replayed_kvps;
  execution.faults.hint_overflows =
      faults_after.hint_overflows - faults_before.hint_overflows;
  execution.faults.recopied_kvps =
      faults_after.recopied_kvps - faults_before.recopied_kvps;
  execution.faults.corrupt_files_quarantined =
      faults_after.corrupt_files_quarantined -
      faults_before.corrupt_files_quarantined;
  execution.faults.corruption_repairs =
      faults_after.corruption_repairs - faults_before.corruption_repairs;
  execution.faults.read_repairs =
      faults_after.read_repairs - faults_before.read_repairs;

  execution.integrity.files_quarantined =
      execution.faults.corrupt_files_quarantined;
  execution.integrity.shard_recopies = execution.faults.corruption_repairs;
  execution.integrity.read_repairs = execution.faults.read_repairs;
  if (cluster_->fault_env() != nullptr) {
    // Discount vacuous injections (rot that died with an obsolete table
    // before any verification could see it): they were re-rolled and never
    // threatened live data, so they don't count against detection.
    storage::FaultCounters counters = cluster_->fault_env()->counters();
    execution.integrity.files_corrupted =
        counters.files_corrupted - fault_counters_before.files_corrupted -
        vacuous_corrupt_files_.load(std::memory_order_relaxed);
    execution.integrity.bits_flipped =
        counters.bits_flipped - fault_counters_before.bits_flipped -
        vacuous_corrupt_bits_.load(std::memory_order_relaxed);
  }
  const std::vector<uint64_t> wal_dropped_after = node_wal_dropped();
  execution.integrity.node_wal_dropped_bytes.assign(wal_dropped_after.size(),
                                                    0);
  for (size_t i = 0; i < wal_dropped_after.size(); ++i) {
    // A node restart reopens the store and resets its counters, so the
    // delta saturates to the new instance's count instead of underflowing.
    uint64_t before = i < wal_dropped_before.size() ? wal_dropped_before[i]
                                                    : 0;
    execution.integrity.node_wal_dropped_bytes[i] =
        wal_dropped_after[i] >= before ? wal_dropped_after[i] - before
                                       : wal_dropped_after[i];
  }

  const cluster::AvailabilityStats avail_after =
      cluster_->GetAvailabilityStats();
  execution.availability.writes_attempted =
      avail_after.writes_attempted - avail_before.writes_attempted;
  execution.availability.writes_quorum_met =
      avail_after.writes_quorum_met - avail_before.writes_quorum_met;
  execution.availability.writes_unavailable =
      avail_after.writes_unavailable - avail_before.writes_unavailable;
  execution.availability.straggler_hinted_kvps =
      avail_after.straggler_hinted_kvps - avail_before.straggler_hinted_kvps;
  execution.availability.deadline_exceeded =
      avail_after.deadline_exceeded - avail_before.deadline_exceeded;
  execution.availability.duplicate_acks_ignored =
      avail_after.duplicate_acks_ignored -
      avail_before.duplicate_acks_ignored;
  if (net != nullptr) {
    cluster::NetFaultCounters net_after = net->GetCounters();
    execution.net_faults.sent = net_after.sent - net_before.sent;
    execution.net_faults.dropped = net_after.dropped - net_before.dropped;
    execution.net_faults.duplicated =
        net_after.duplicated - net_before.duplicated;
    execution.net_faults.reordered =
        net_after.reordered - net_before.reordered;
    execution.net_faults.delayed = net_after.delayed - net_before.delayed;
    execution.net_faults.partition_blocked =
        net_after.partition_blocked - net_before.partition_blocked;
  }

  execution.drivers = std::move(results);
  for (const auto& driver : execution.drivers) {
    execution.metrics.kvps_ingested += driver.kvps_ingested;
    if (!driver.status.ok() && execution.status.ok()) {
      execution.status = driver.status;
    }
  }
  return execution;
}

BenchmarkResult BenchmarkDriver::Run() {
  BenchmarkResult result;

  // --- Prerequisite checks (abort on failure) ---
  if (!config_.kit_files.empty()) {
    storage::Env* env = config_.kit_env != nullptr ? config_.kit_env
                                                   : storage::Env::Posix();
    result.file_check = FileCheck(env, config_.kit_files);
  } else {
    result.file_check = {true, "file check", "no kit files registered"};
  }
  if (!result.file_check.passed) {
    result.status = Status::FailedCheck(result.file_check.detail);
    result.invalid_reason = "file check failed";
    return result;
  }

  result.replication_check = ReplicationCheck(cluster_);
  if (!result.replication_check.passed) {
    result.status = Status::FailedCheck(result.replication_check.detail);
    result.invalid_reason = "replication check failed";
    return result;
  }

  // A fault schedule naming a node the SUT does not have would silently
  // never fire; reject it up front instead.
  if (config_.fault_kill_node >= cluster_->num_nodes()) {
    result.status = Status::InvalidArgument(
        "fault.kill_node=" + std::to_string(config_.fault_kill_node) +
        " but the SUT has " + std::to_string(cluster_->num_nodes()) +
        " nodes");
    result.invalid_reason = "invalid fault schedule";
    return result;
  }
  if (config_.fault_corrupt_node >= cluster_->num_nodes()) {
    result.status = Status::InvalidArgument(
        "fault.corrupt_sstable=" +
        std::to_string(config_.fault_corrupt_node) + " but the SUT has " +
        std::to_string(cluster_->num_nodes()) + " nodes");
    result.invalid_reason = "invalid fault schedule";
    return result;
  }
  if (config_.fault_corrupt_node >= 0 && cluster_->fault_env() == nullptr) {
    result.status = Status::InvalidArgument(
        "fault.corrupt_sstable requires a cluster with fault injection "
        "enabled");
    result.invalid_reason = "invalid fault schedule";
    return result;
  }
  if (config_.HasNetFaultSchedule() &&
      cluster_->net_fault_channel() == nullptr) {
    result.status = Status::InvalidArgument(
        "fault.net_* schedules require a cluster with net fault injection "
        "enabled");
    result.invalid_reason = "invalid fault schedule";
    return result;
  }
  if (config_.fault_net_partition_node >= cluster_->num_nodes() ||
      config_.fault_net_delay_node >= cluster_->num_nodes()) {
    result.status = Status::InvalidArgument(
        "fault.net_partition_node/fault.net_delay_node out of range: the "
        "SUT has " +
        std::to_string(cluster_->num_nodes()) + " nodes");
    result.invalid_reason = "invalid fault schedule";
    return result;
  }
  // The probe rows must not count towards the benchmark data.
  Status purge = cluster_->PurgeAll();
  if (!purge.ok()) {
    result.status = purge;
    return result;
  }

  // --- Two benchmark iterations ---
  bool windows_valid = true;
  std::string window_reason;
  for (int iteration = 0; iteration < 2; ++iteration) {
    IterationResult& iter = result.iterations[iteration];

    if (!config_.skip_warmup) {
      IOTDB_LOG(Info) << "iteration " << (iteration + 1) << ": warmup run";
      iter.warmup = ExecuteWorkloadInternal(/*with_faults=*/false);
      if (!iter.warmup.status.ok()) {
        result.status = iter.warmup.status;
        result.invalid_reason = "warmup execution failed";
        return result;
      }
    }

    IOTDB_LOG(Info) << "iteration " << (iteration + 1) << ": measured run";
    iter.measured = ExecuteWorkloadInternal(/*with_faults=*/true);
    if (!iter.measured.status.ok()) {
      result.status = iter.measured.status;
      result.invalid_reason = "measured execution failed";
      return result;
    }

    // A reversed/empty measurement window means the timing itself is
    // broken; IoTps over it would be meaningless. Flag the run invalid
    // rather than reporting a fake rate (the FDR prints the check result).
    Status window = iter.measured.metrics.Validate();
    if (!window.ok() && windows_valid) {
      windows_valid = false;
      window_reason = window.message();
      IOTDB_LOG(Error) << "iteration " << (iteration + 1) << ": "
                       << window.ToString();
    }

    DataCheckInput check;
    check.expected_kvps = config_.total_kvps;
    check.ingested_kvps = iter.measured.metrics.kvps_ingested;
    check.elapsed_seconds = iter.measured.metrics.ElapsedSeconds();
    check.substations = config_.num_driver_instances;
    check.avg_rows_per_query = iter.measured.AvgRowsPerQuery();
    check.min_run_seconds = config_.min_run_seconds;
    check.min_per_sensor_rate = config_.min_per_sensor_rate;
    check.min_rows_per_query = config_.min_rows_per_query;
    check.enforce_query_rows = config_.enforce_query_rows;
    iter.data_check = DataCheck(check);

    // System cleanup between iterations (and after the second, the SUT is
    // left purged for reporting reproducibility).
    Status cleanup = cluster_->PurgeAll();
    if (!cleanup.ok()) {
      result.status = cleanup;
      result.invalid_reason = "system cleanup failed";
      return result;
    }
  }

  result.performance_run =
      PerformanceRunIndex(result.iterations[0].measured.metrics,
                          result.iterations[1].measured.metrics);
  result.valid = windows_valid && result.iterations[0].data_check.passed &&
                 result.iterations[1].data_check.passed;
  if (!windows_valid) {
    result.invalid_reason = window_reason;
  } else if (!result.valid) {
    result.invalid_reason =
        !result.iterations[0].data_check.passed
            ? result.iterations[0].data_check.detail
            : result.iterations[1].data_check.detail;
  } else if (config_.repeatability_tolerance > 0 &&
             result.RepeatabilityDelta() >
                 config_.repeatability_tolerance) {
    result.valid = false;
    char buf[128];
    snprintf(buf, sizeof(buf),
             "measured runs differ by %.1f%% (tolerance %.1f%%)",
             100.0 * result.RepeatabilityDelta(),
             100.0 * config_.repeatability_tolerance);
    result.invalid_reason = buf;
  }
  return result;
}

double BenchmarkResult::RepeatabilityDelta() const {
  double first = iterations[0].measured.metrics.IoTps();
  double second = iterations[1].measured.metrics.IoTps();
  double larger = std::max(first, second);
  if (larger <= 0) return 0;
  return (larger - std::min(first, second)) / larger;
}

}  // namespace iot
}  // namespace iotdb
