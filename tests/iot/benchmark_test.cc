// Checks, metrics, pricing, report, driver instance, and the full
// benchmark driver running end-to-end against the real in-process cluster.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/cluster.h"
#include "iot/benchmark_driver.h"
#include "iot/checks.h"
#include "iot/metrics.h"
#include "iot/pricing.h"
#include "iot/report.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "ycsb/bindings.h"

namespace iotdb {
namespace iot {
namespace {

std::unique_ptr<cluster::Cluster> MakeSut(int nodes) {
  cluster::ClusterOptions options;
  options.num_nodes = nodes;
  options.replication_factor = 3;
  options.shard_key_fn = TpcxIotShardKey;
  options.storage_options.write_buffer_size = 256 * 1024;
  auto result = cluster::Cluster::Start(options);
  EXPECT_TRUE(result.ok());
  return std::move(result).MoveValueUnsafe();
}

TEST(FileCheckTest, PassesOnMatchingChecksums) {
  auto env = storage::NewMemEnv();
  ASSERT_TRUE(env->WriteStringToFile("/kit/workload.properties",
                                     "recordcount=1000\n").ok());
  std::string digest =
      Md5OfFile(env.get(), "/kit/workload.properties").ValueOrDie();
  CheckResult result = FileCheck(
      env.get(), {{"/kit/workload.properties", digest}});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(FileCheckTest, FailsOnTamperedFile) {
  auto env = storage::NewMemEnv();
  ASSERT_TRUE(env->WriteStringToFile("/kit/f", "original").ok());
  std::string digest = Md5OfFile(env.get(), "/kit/f").ValueOrDie();
  ASSERT_TRUE(env->WriteStringToFile("/kit/f", "tampered!").ok());
  CheckResult result = FileCheck(env.get(), {{"/kit/f", digest}});
  EXPECT_FALSE(result.passed);
  EXPECT_NE(result.detail.find("checksum mismatch"), std::string::npos);
}

TEST(FileCheckTest, FailsOnMissingFile) {
  auto env = storage::NewMemEnv();
  CheckResult result = FileCheck(env.get(), {{"/kit/missing", "00"}});
  EXPECT_FALSE(result.passed);
}

TEST(ReplicationCheckTest, PassesOnThreeWayCluster) {
  auto sut = MakeSut(4);
  CheckResult result = ReplicationCheck(sut.get());
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(ReplicationCheckTest, FailsWhenConfiguredBelowThree) {
  cluster::ClusterOptions options;
  options.num_nodes = 4;
  options.replication_factor = 1;
  auto sut = cluster::Cluster::Start(options).MoveValueUnsafe();
  CheckResult result = ReplicationCheck(sut.get());
  EXPECT_FALSE(result.passed);
}

TEST(DataCheckTest, EnforcesAllFloors) {
  DataCheckInput input;
  input.expected_kvps = 1000;
  input.ingested_kvps = 1000;
  input.elapsed_seconds = 2000;
  input.substations = 1;
  input.avg_rows_per_query = 500;
  input.min_run_seconds = 1800;
  input.min_per_sensor_rate = 0.001;
  EXPECT_TRUE(DataCheck(input).passed);

  DataCheckInput missing = input;
  missing.ingested_kvps = 999;
  EXPECT_FALSE(DataCheck(missing).passed);

  DataCheckInput short_run = input;
  short_run.elapsed_seconds = 1799;
  EXPECT_FALSE(DataCheck(short_run).passed);

  DataCheckInput slow = input;
  slow.min_per_sensor_rate = 20;  // 1000 kvps over 2000s is way below
  EXPECT_FALSE(DataCheck(slow).passed);

  DataCheckInput thin_queries = input;
  thin_queries.avg_rows_per_query = 100;
  EXPECT_FALSE(DataCheck(thin_queries).passed);
  thin_queries.enforce_query_rows = false;
  EXPECT_TRUE(DataCheck(thin_queries).passed);
}

TEST(MetricsTest, IoTpsIsEquation4) {
  RunMetrics run;
  run.kvps_ingested = 1000000;
  run.ts_start_micros = 0;
  run.ts_end_micros = 100ull * 1000000;  // 100 s
  EXPECT_DOUBLE_EQ(run.IoTps(), 10000.0);
  EXPECT_DOUBLE_EQ(run.ElapsedSeconds(), 100.0);
}

TEST(MetricsTest, ReversedWindowIsAnErrorNotAZeroRate) {
  RunMetrics run;
  run.kvps_ingested = 1000;
  run.ts_start_micros = 5000000;
  run.ts_end_micros = 1000000;  // clock went backwards
  EXPECT_FALSE(run.HasValidWindow());
  Status s = run.Validate();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("invalid measurement window"),
            std::string::npos);
  // Elapsed must come out negative (not a huge unsigned wrap) so IoTps
  // cannot silently report a tiny-but-positive rate.
  EXPECT_LT(run.ElapsedSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(run.IoTps(), 0.0);

  RunMetrics empty;
  empty.ts_start_micros = empty.ts_end_micros = 7;
  EXPECT_FALSE(empty.HasValidWindow());
  EXPECT_FALSE(empty.Validate().ok());

  RunMetrics good;
  good.ts_start_micros = 0;
  good.ts_end_micros = 1;
  EXPECT_TRUE(good.HasValidWindow());
  EXPECT_TRUE(good.Validate().ok());
}

TEST(MetricsTest, PerformanceRunIsTheSlowerOne) {
  RunMetrics fast, slow;
  fast.kvps_ingested = slow.kvps_ingested = 1000;
  fast.ts_start_micros = slow.ts_start_micros = 0;
  fast.ts_end_micros = 1000000;
  slow.ts_end_micros = 2000000;
  EXPECT_EQ(PerformanceRunIndex(fast, slow), 1);
  EXPECT_EQ(PerformanceRunIndex(slow, fast), 0);
  // With different kvp counts, the lower count wins per spec.
  RunMetrics fewer = fast;
  fewer.kvps_ingested = 500;
  EXPECT_EQ(PerformanceRunIndex(fewer, slow), 0);
}

TEST(MetricsTest, PricePerformanceIsEquation5) {
  RunMetrics run;
  run.kvps_ingested = 100000;
  run.ts_start_micros = 0;
  run.ts_end_micros = 10ull * 1000000;
  EXPECT_DOUBLE_EQ(run.IoTps(), 10000.0);
  EXPECT_DOUBLE_EQ(PricePerformance(50000.0, run), 5.0);
}

TEST(PricingTest, TotalsAndAvailability) {
  PricedConfiguration config =
      PricedConfiguration::ReferenceGatewayConfig(8);
  EXPECT_GT(config.TotalCost(), 0.0);
  EXPECT_GT(config.CostInCategory(PriceCategory::kHardware), 0.0);
  EXPECT_GT(config.CostInCategory(PriceCategory::kMaintenance), 0.0);
  EXPECT_EQ(config.SystemAvailabilityDate(), "2017-05-01");
  std::string problem;
  EXPECT_TRUE(config.Validate(&problem)) << problem;
  // More nodes cost more.
  EXPECT_GT(config.TotalCost(),
            PricedConfiguration::ReferenceGatewayConfig(2).TotalCost());
}

TEST(PricingTest, ValidationCatchesRuleViolations) {
  std::string problem;
  PricedConfiguration empty;
  EXPECT_FALSE(empty.Validate(&problem));

  PricedConfiguration no_maintenance;
  no_maintenance.Add({"server", "P/N", PriceCategory::kHardware, 100.0, 1,
                      0, "2020-01-01"});
  EXPECT_FALSE(no_maintenance.Validate(&problem));
  EXPECT_NE(problem.find("maintenance"), std::string::npos);

  PricedConfiguration bad_discount;
  bad_discount.Add({"server", "P/N", PriceCategory::kHardware, 100.0, 1,
                    1.5, "2020-01-01"});
  EXPECT_FALSE(bad_discount.Validate(&problem));
}

TEST(PricingTest, DiscountApplies) {
  LineItem item{"x", "p", PriceCategory::kHardware, 100.0, 2, 0.25, "d"};
  EXPECT_DOUBLE_EQ(item.ExtendedPrice(), 150.0);
}

TEST(DriverInstanceTest, IngestsShareAndIssuesQueries) {
  auto sut = MakeSut(2);
  ycsb::ClusterDB db(sut.get());
  DriverOptions options;
  options.substation_key = "sub0001";
  options.total_kvps = 25000;  // 2 query batches worth
  options.batch_size = 500;
  DriverInstance driver(options, &db);
  DriverResult result = driver.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.kvps_ingested, 25000u);
  // 25000 readings -> 2 * 5 queries.
  EXPECT_EQ(result.queries_executed, 10u);
  EXPECT_EQ(result.query_latency_micros.count, 10u);
  EXPECT_GT(result.ElapsedSeconds(), 0.0);
  // Every ingested kvp is on the cluster, 2 copies (2 nodes).
  EXPECT_EQ(sut->GetAggregateStats().primary_writes, 25000u);
}

TEST(DriverInstanceTest, AbortStopsEarly) {
  auto sut = MakeSut(2);
  ycsb::ClusterDB db(sut.get());
  DriverOptions options;
  options.substation_key = "sub0001";
  options.total_kvps = 1000000;
  std::atomic<bool> abort{true};
  DriverInstance driver(options, &db);
  DriverResult result = driver.Run(&abort);
  EXPECT_TRUE(result.status.IsAborted());
  EXPECT_LT(result.kvps_ingested, 1000000u);
}

TEST(BenchmarkDriverTest, FullRunEndToEnd) {
  auto sut = MakeSut(3);
  BenchmarkConfig config;
  config.num_driver_instances = 2;
  config.total_kvps = 30000;
  config.batch_size = 500;
  config.min_run_seconds = 0;      // scaled-down floors
  config.min_per_sensor_rate = 0;  // in-process run, no rate floor
  config.skip_warmup = false;

  BenchmarkDriver driver(config, sut.get());
  BenchmarkResult result = driver.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.file_check.passed);
  EXPECT_TRUE(result.replication_check.passed);
  EXPECT_TRUE(result.valid) << result.invalid_reason;
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(result.iterations[i].measured.metrics.kvps_ingested, 30000u);
    EXPECT_EQ(result.iterations[i].warmup.metrics.kvps_ingested, 30000u);
    EXPECT_TRUE(result.iterations[i].data_check.passed);
    EXPECT_EQ(result.iterations[i].measured.TotalQueries(), 10u);
    // Every executed query lands in the merged per-driver histogram.
    EXPECT_EQ(result.iterations[i].measured.MergedQueryLatency().count,
              result.iterations[i].measured.TotalQueries());
  }
  EXPECT_GT(result.IoTps(), 0.0);
  // The SUT is purged after the run.
  EXPECT_EQ(sut->GetAggregateStats().primary_writes, 0u);

  // Each iteration's FDR block reports its query latency.
  PricedConfiguration pricing =
      PricedConfiguration::ReferenceGatewayConfig(3);
  SutDescription sut_desc;
  sut_desc.nodes = 3;
  std::string fdr = FullDisclosureReport(result, pricing, sut_desc);
  size_t first = fdr.find("  Queries:  10 executed, avg ");
  ASSERT_NE(first, std::string::npos) << fdr;
  EXPECT_NE(fdr.find("  Queries:  10 executed, avg ", first + 1),
            std::string::npos)
      << fdr;
}

TEST(BenchmarkDriverTest, TimelineIngestSumMatchesRunTotal) {
  auto sut = MakeSut(3);
  BenchmarkConfig config;
  config.num_driver_instances = 2;
  config.total_kvps = 30000;
  config.batch_size = 500;
  config.min_run_seconds = 0;
  config.min_per_sensor_rate = 0;
  config.timeline_cadence_micros = 5'000;  // several intervals per run

  BenchmarkDriver driver(config, sut.get());
  BenchmarkResult result = driver.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  for (int i = 0; i < 2; ++i) {
    const obs::Timeline& timeline = result.iterations[i].measured.timeline;
    ASSERT_FALSE(timeline.empty()) << "iteration " << i;
    // Per-interval deltas telescope and the sampler flushes its tail at
    // Stop(), so the interval sum equals the run total exactly — the same
    // invariant the bench's --timeline-out cross-check prints.
    EXPECT_EQ(timeline.CounterTotal("driver.ingest.kvps"),
              result.iterations[i].measured.metrics.kvps_ingested)
        << "iteration " << i;
    EXPECT_EQ(timeline.cadence_micros, 5'000u);
  }

  // The FDR gains a Run timeline section when a timeline was collected.
  PricedConfiguration pricing =
      PricedConfiguration::ReferenceGatewayConfig(3);
  SutDescription sut_desc;
  sut_desc.nodes = 3;
  std::string fdr = FullDisclosureReport(result, pricing, sut_desc);
  EXPECT_NE(fdr.find("Run timeline"), std::string::npos);
  EXPECT_NE(fdr.find("steady-state CoV"), std::string::npos);
}

TEST(BenchmarkDriverTest, FaultScheduleKillsAndRecoversANode) {
  cluster::ClusterOptions options;
  options.num_nodes = 3;
  options.replication_factor = 3;
  options.shard_key_fn = TpcxIotShardKey;
  options.storage_options.write_buffer_size = 256 * 1024;
  options.enable_fault_injection = true;
  options.fault_seed = 11;
  auto sut = cluster::Cluster::Start(options).MoveValueUnsafe();

  BenchmarkConfig config;
  config.num_driver_instances = 2;
  config.total_kvps = 20000;
  config.batch_size = 200;
  config.min_run_seconds = 0;
  config.min_per_sensor_rate = 0;
  config.fault_kill_node = 1;
  config.fault_at_ops = 2000;
  config.fault_restart_after_ops = 5000;

  BenchmarkDriver driver(config, sut.get());
  WorkloadExecution execution = driver.ExecuteWorkload();
  ASSERT_TRUE(execution.status.ok()) << execution.status.ToString();
  EXPECT_EQ(execution.metrics.kvps_ingested, 20000u);
  EXPECT_EQ(execution.faults.node_crashes, 1u);
  EXPECT_EQ(execution.faults.node_restarts, 1u);

  // The victim rejoined and converged: with rf == nodes every node holds
  // every key, so the restarted node's shard data equals its replicas'.
  EXPECT_FALSE(sut->node(1)->is_down());
  ASSERT_TRUE(sut->FlushAll().ok());
  uint64_t restarted = sut->node(1)->CountKeysSlow();
  uint64_t replica = sut->node(0)->CountKeysSlow();
  EXPECT_EQ(restarted, replica);
  EXPECT_GT(restarted, 0u);
}

TEST(BenchmarkDriverTest, CorruptionScheduleDetectsAndRepairs) {
  cluster::ClusterOptions options;
  options.num_nodes = 3;
  options.replication_factor = 3;
  options.shard_key_fn = TpcxIotShardKey;
  options.storage_options.write_buffer_size = 64 * 1024;
  options.enable_fault_injection = true;
  options.fault_seed = 33;
  auto sut = cluster::Cluster::Start(options).MoveValueUnsafe();

  BenchmarkConfig config;
  config.num_driver_instances = 2;
  config.total_kvps = 20000;
  config.batch_size = 200;
  config.min_run_seconds = 0;
  config.min_per_sensor_rate = 0;
  config.fault_corrupt_node = 1;
  config.fault_corrupt_at_ops = 4000;
  config.fault_corrupt_bits = 16;

  BenchmarkDriver driver(config, sut.get());
  WorkloadExecution execution = driver.ExecuteWorkload();
  ASSERT_TRUE(execution.status.ok()) << execution.status.ToString();
  EXPECT_EQ(execution.metrics.kvps_ingested, 20000u);

  // Injected damage was detected, quarantined, and healed during the run:
  // the FDR's "detected == repaired" invariant.
  EXPECT_EQ(execution.integrity.files_corrupted, 1u);
  EXPECT_EQ(execution.integrity.bits_flipped, 16u);
  EXPECT_EQ(execution.integrity.files_quarantined, 1u);
  EXPECT_EQ(execution.integrity.shard_recopies, 1u);
  EXPECT_TRUE(execution.integrity.Any());

  // The repaired node converged with its replicas (rf == nodes, so every
  // node holds every key) and nothing is left pending.
  EXPECT_TRUE(sut->PendingRepairNodes().empty());
  EXPECT_FALSE(sut->node(1)->under_repair());
  ASSERT_TRUE(sut->FlushAll().ok());
  EXPECT_EQ(sut->node(1)->CountKeysSlow(),
            sut->node(0)->CountKeysSlow());
}

TEST(BenchmarkDriverTest, NetFaultScheduleDegradesAndConverges) {
  cluster::ClusterOptions options;
  options.num_nodes = 3;
  options.replication_factor = 3;
  options.shard_key_fn = TpcxIotShardKey;
  options.storage_options.write_buffer_size = 256 * 1024;
  options.enable_net_fault_injection = true;
  options.net_fault_seed = 17;
  options.straggler_timeout_micros = 20'000;
  auto sut = cluster::Cluster::Start(options).MoveValueUnsafe();

  BenchmarkConfig config;
  config.num_driver_instances = 2;
  config.total_kvps = 20000;
  config.batch_size = 200;
  config.min_run_seconds = 0;
  config.min_per_sensor_rate = 0;
  config.fault_net_partition_node = 1;
  config.fault_net_partition_at_ops = 5000;
  config.fault_net_heal_after_ops = 5000;

  BenchmarkDriver driver(config, sut.get());
  WorkloadExecution execution = driver.ExecuteWorkload();
  ASSERT_TRUE(execution.status.ok()) << execution.status.ToString();
  EXPECT_EQ(execution.metrics.kvps_ingested, 20000u);

  // The partition fired, writes kept meeting quorum on the reachable
  // replicas, and the accounting invariant holds exactly.
  EXPECT_GT(execution.net_faults.partition_blocked, 0u);
  EXPECT_GT(execution.availability.writes_attempted, 0u);
  EXPECT_EQ(execution.availability.writes_attempted,
            execution.availability.writes_quorum_met +
                execution.availability.writes_unavailable);
  EXPECT_GE(static_cast<double>(execution.availability.writes_quorum_met),
            0.99 * static_cast<double>(
                       execution.availability.writes_attempted));
  EXPECT_GT(execution.availability.straggler_hinted_kvps, 0u);

  // Heal + hint drain ran inside the execution: the once-partitioned node
  // converged with its replicas (rf == nodes, every node holds every key).
  ASSERT_TRUE(sut->FlushAll().ok());
  EXPECT_EQ(sut->node(1)->CountKeysSlow(),
            sut->node(0)->CountKeysSlow());

  // And the FDR gains the Availability section with its PASS invariant.
  BenchmarkResult result;
  result.iterations[0].measured = std::move(execution);
  PricedConfiguration pricing =
      PricedConfiguration::ReferenceGatewayConfig(3);
  SutDescription sut_desc;
  sut_desc.nodes = 3;
  std::string fdr = FullDisclosureReport(result, pricing, sut_desc);
  EXPECT_NE(fdr.find("--- Availability ---"), std::string::npos);
  EXPECT_NE(fdr.find("[PASS] write accounting"), std::string::npos);
}

TEST(BenchmarkDriverTest, RejectsNetFaultScheduleWithoutNetChannel) {
  auto sut = MakeSut(3);  // no net fault injection enabled
  BenchmarkConfig config;
  config.num_driver_instances = 1;
  config.total_kvps = 1000;
  config.min_run_seconds = 0;
  config.min_per_sensor_rate = 0;
  config.fault_net_partition_node = 1;
  BenchmarkDriver driver(config, sut.get());
  BenchmarkResult result = driver.Run();
  EXPECT_TRUE(result.status.IsInvalidArgument()) << result.status.ToString();
  EXPECT_EQ(result.invalid_reason, "invalid fault schedule");
}

TEST(BenchmarkDriverTest, RejectsCorruptionScheduleWithoutFaultEnv) {
  auto sut = MakeSut(3);  // no fault injection enabled
  BenchmarkConfig config;
  config.num_driver_instances = 1;
  config.total_kvps = 1000;
  config.min_run_seconds = 0;
  config.min_per_sensor_rate = 0;
  config.fault_corrupt_node = 0;
  BenchmarkDriver driver(config, sut.get());
  BenchmarkResult result = driver.Run();
  EXPECT_TRUE(result.status.IsInvalidArgument()) << result.status.ToString();
  EXPECT_EQ(result.invalid_reason, "invalid fault schedule");
}

TEST(BenchmarkDriverTest, RejectsFaultScheduleForMissingNode) {
  auto sut = MakeSut(3);
  BenchmarkConfig config;
  config.num_driver_instances = 1;
  config.total_kvps = 1000;
  config.min_run_seconds = 0;
  config.min_per_sensor_rate = 0;
  config.fault_kill_node = 99;  // the SUT has nodes 0..2
  config.fault_at_ops = 100;
  BenchmarkDriver driver(config, sut.get());
  BenchmarkResult result = driver.Run();
  EXPECT_TRUE(result.status.IsInvalidArgument()) << result.status.ToString();
  EXPECT_EQ(result.invalid_reason, "invalid fault schedule");
}

TEST(BenchmarkDriverTest, AbortsOnFailedFileCheck) {
  auto sut = MakeSut(3);
  auto kit_env = storage::NewMemEnv();
  ASSERT_TRUE(kit_env->WriteStringToFile("/kit/f", "contents").ok());
  BenchmarkConfig config;
  config.num_driver_instances = 1;
  config.total_kvps = 100;
  config.kit_files = {{"/kit/f", "wrongdigest"}};
  config.kit_env = kit_env.get();
  BenchmarkDriver driver(config, sut.get());
  BenchmarkResult result = driver.Run();
  EXPECT_TRUE(result.status.IsFailedCheck());
  EXPECT_FALSE(result.valid);
}

TEST(BenchmarkDriverTest, InvalidWhenTimeFloorMissed) {
  auto sut = MakeSut(3);
  BenchmarkConfig config;
  config.num_driver_instances = 1;
  config.total_kvps = 2000;
  config.min_run_seconds = 3600;  // impossible for this tiny run
  config.min_per_sensor_rate = 0;
  config.skip_warmup = true;
  BenchmarkDriver driver(config, sut.get());
  BenchmarkResult result = driver.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_FALSE(result.valid);
  EXPECT_FALSE(result.invalid_reason.empty());
}

TEST(ReportTest, SummaryAndFdrContainTheMetrics) {
  auto sut = MakeSut(3);
  BenchmarkConfig config;
  config.num_driver_instances = 1;
  config.total_kvps = 15000;
  config.min_run_seconds = 0;
  config.min_per_sensor_rate = 0;
  config.skip_warmup = true;
  BenchmarkDriver driver(config, sut.get());
  BenchmarkResult result = driver.Run();
  ASSERT_TRUE(result.status.ok());

  PricedConfiguration pricing =
      PricedConfiguration::ReferenceGatewayConfig(3);
  SutDescription sut_desc;
  sut_desc.nodes = 3;

  std::string summary = ExecutiveSummary(result, pricing, sut_desc);
  EXPECT_NE(summary.find("IoTps"), std::string::npos);
  EXPECT_NE(summary.find("$/IoTps"), std::string::npos);
  EXPECT_NE(summary.find("2017-05-01"), std::string::npos);

  std::string fdr = FullDisclosureReport(result, pricing, sut_desc);
  EXPECT_NE(fdr.find("Iteration 1"), std::string::npos);
  EXPECT_NE(fdr.find("Iteration 2"), std::string::npos);
  EXPECT_NE(fdr.find("Priced configuration"), std::string::npos);
  EXPECT_NE(fdr.find("data check"), std::string::npos);
  EXPECT_NE(fdr.find("TOTAL"), std::string::npos);
  EXPECT_NE(fdr.find("[PASS] measurement window"), std::string::npos);
}

TEST(ReportTest, FdrFlagsAnInvalidMeasurementWindow) {
  BenchmarkResult result;
  for (int i = 0; i < 2; ++i) {
    RunMetrics& m = result.iterations[i].measured.metrics;
    m.kvps_ingested = 1000;
    m.ts_start_micros = 2000000;
    m.ts_end_micros = i == 0 ? 1000000 : 3000000;  // iteration 1 reversed
    result.iterations[i].data_check = {true, "data check", "ok"};
  }
  result.valid = false;
  result.invalid_reason = result.iterations[0].measured.metrics.Validate()
                              .message();

  std::string fdr = FullDisclosureReport(
      result, PricedConfiguration::ReferenceGatewayConfig(3),
      SutDescription{});
  EXPECT_NE(fdr.find("[FAIL] measurement window"), std::string::npos);
  EXPECT_NE(fdr.find("invalid measurement window"), std::string::npos);
  EXPECT_NE(fdr.find("[PASS] measurement window"), std::string::npos);
}

TEST(ReportTest, FdrAndReportFilesCarryTheObsSnapshot) {
  auto sut = MakeSut(3);
  BenchmarkConfig config;
  config.num_driver_instances = 1;
  config.total_kvps = 15000;
  config.min_run_seconds = 0;
  config.min_per_sensor_rate = 0;
  config.skip_warmup = true;
  BenchmarkDriver driver(config, sut.get());
  BenchmarkResult result = driver.Run();
  ASSERT_TRUE(result.status.ok());

  const obs::MetricsSnapshot& delta =
      result.iterations[result.performance_run].measured.obs_delta;
  ASSERT_FALSE(delta.empty());
  // The measured window saw real traffic in every wired layer.
  EXPECT_GE(delta.counters.at("storage.ops.puts"), 15000u);
  EXPECT_GE(delta.counters.at("cluster.ops.writes"), 15000u);
  EXPECT_EQ(delta.counters.at("driver.ingest.kvps"), 15000u);
  EXPECT_GT(delta.histograms.at("storage.wal.append_micros").count, 0u);

  PricedConfiguration pricing =
      PricedConfiguration::ReferenceGatewayConfig(3);
  SutDescription sut_desc;
  std::string fdr = FullDisclosureReport(result, pricing, sut_desc);
  EXPECT_NE(fdr.find("Observability"), std::string::npos);
  EXPECT_NE(fdr.find("storage.wal.append_micros"), std::string::npos);

  auto env = storage::NewMemEnv();
  ASSERT_TRUE(WriteReportFiles(env.get(), "/fdr", result, pricing, sut_desc)
                  .ok());
  std::string json;
  ASSERT_TRUE(env->ReadFileToString("/fdr/metrics.json", &json).ok());
  EXPECT_EQ(json, delta.ToJson());
}

}  // namespace
}  // namespace iot
}  // namespace iotdb
