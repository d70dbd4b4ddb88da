#include "iot/config.h"

#include <gtest/gtest.h>

#include "iot/report.h"
#include "storage/env.h"

namespace iotdb {
namespace iot {
namespace {

TEST(BenchmarkConfigTest, DefaultsMatchTheKit) {
  Properties empty;
  auto config = LoadBenchmarkConfig(empty);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.ValueOrDie().num_driver_instances, 1);
  EXPECT_EQ(config.ValueOrDie().total_kvps, Rules::kDefaultTotalKvps);
  EXPECT_DOUBLE_EQ(config.ValueOrDie().min_run_seconds, 1800.0);
  EXPECT_DOUBLE_EQ(config.ValueOrDie().min_per_sensor_rate, 20.0);
}

TEST(BenchmarkConfigTest, ParsesAllKeys) {
  Properties props;
  ASSERT_TRUE(props
                  .ParseText("driver_instances=16\n"
                             "total_kvps=400000000\n"
                             "batch_size=1000\n"
                             "seed=7\n"
                             "min_run_seconds=90\n"
                             "min_per_sensor_rate=1\n"
                             "skip_warmup=true\n")
                  .ok());
  auto result = LoadBenchmarkConfig(props);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const BenchmarkConfig& config = result.ValueOrDie();
  EXPECT_EQ(config.num_driver_instances, 16);
  EXPECT_EQ(config.total_kvps, 400000000ull);
  EXPECT_EQ(config.batch_size, 1000u);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_DOUBLE_EQ(config.min_run_seconds, 90.0);
  EXPECT_TRUE(config.skip_warmup);
}

TEST(BenchmarkConfigTest, TimelineCadenceParsesAndRoundTrips) {
  Properties empty;
  auto defaults = LoadBenchmarkConfig(empty);
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults.ValueOrDie().timeline_cadence_micros, 1'000'000u);

  Properties props;
  props.Set("timeline.cadence_ms", "250");
  auto parsed = LoadBenchmarkConfig(props);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie().timeline_cadence_micros, 250'000u);

  Properties round = BenchmarkConfigToProperties(parsed.ValueOrDie());
  auto restored = LoadBenchmarkConfig(round);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.ValueOrDie().timeline_cadence_micros, 250'000u);

  Properties zero;
  zero.Set("timeline.cadence_ms", "0");
  EXPECT_TRUE(LoadBenchmarkConfig(zero).status().IsInvalidArgument());
}

TEST(BenchmarkConfigTest, UnknownKeysRejected) {
  Properties props;
  props.Set("driver_instnaces", "4");  // typo must not silently default
  EXPECT_TRUE(LoadBenchmarkConfig(props).status().IsInvalidArgument());
}

TEST(BenchmarkConfigTest, InvalidValuesRejected) {
  Properties zero_instances;
  zero_instances.Set("driver_instances", "0");
  EXPECT_FALSE(LoadBenchmarkConfig(zero_instances).ok());

  Properties too_few_kvps;
  too_few_kvps.Set("driver_instances", "10");
  too_few_kvps.Set("total_kvps", "5");
  EXPECT_FALSE(LoadBenchmarkConfig(too_few_kvps).ok());

  Properties bad_type;
  bad_type.Set("total_kvps", "a billion");
  EXPECT_FALSE(LoadBenchmarkConfig(bad_type).ok());
}

TEST(BenchmarkConfigTest, RoundTripsThroughProperties) {
  BenchmarkConfig config;
  config.num_driver_instances = 8;
  config.total_kvps = 240000000;
  config.batch_size = 777;
  config.seed = 5;
  config.skip_warmup = true;
  config.repeatability_tolerance = 0.05;
  Properties props = BenchmarkConfigToProperties(config);
  auto restored = LoadBenchmarkConfig(props);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.ValueOrDie().num_driver_instances, 8);
  EXPECT_EQ(restored.ValueOrDie().total_kvps, 240000000ull);
  EXPECT_EQ(restored.ValueOrDie().batch_size, 777u);
  EXPECT_TRUE(restored.ValueOrDie().skip_warmup);
  EXPECT_DOUBLE_EQ(restored.ValueOrDie().repeatability_tolerance, 0.05);
}

TEST(BenchmarkConfigTest, ParsesFaultSchedule) {
  Properties props;
  ASSERT_TRUE(props
                  .ParseText("fault.kill_node=1\n"
                             "fault.at_ops=5000\n"
                             "fault.restart_after_ops=2000\n")
                  .ok());
  auto result = LoadBenchmarkConfig(props);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().fault_kill_node, 1);
  EXPECT_EQ(result.ValueOrDie().fault_at_ops, 5000u);
  EXPECT_EQ(result.ValueOrDie().fault_restart_after_ops, 2000u);

  // Defaults: no fault schedule.
  Properties empty;
  EXPECT_EQ(LoadBenchmarkConfig(empty).ValueOrDie().fault_kill_node, -1);
}

TEST(BenchmarkConfigTest, FaultScheduleValidated) {
  Properties orphan_threshold;
  orphan_threshold.Set("fault.at_ops", "100");  // no fault.kill_node
  EXPECT_TRUE(
      LoadBenchmarkConfig(orphan_threshold).status().IsInvalidArgument());

  Properties negative;
  negative.Set("fault.kill_node", "0");
  negative.Set("fault.at_ops", "-5");
  EXPECT_FALSE(LoadBenchmarkConfig(negative).ok());
}

TEST(BenchmarkConfigTest, ParsesCorruptionSchedule) {
  Properties props;
  ASSERT_TRUE(props
                  .ParseText("fault.corrupt_sstable=2\n"
                             "fault.corrupt_at_ops=4000\n"
                             "fault.corrupt_bits=16\n")
                  .ok());
  auto result = LoadBenchmarkConfig(props);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().fault_corrupt_node, 2);
  EXPECT_EQ(result.ValueOrDie().fault_corrupt_at_ops, 4000u);
  EXPECT_EQ(result.ValueOrDie().fault_corrupt_bits, 16);

  // Defaults: no corruption schedule.
  Properties empty;
  EXPECT_EQ(LoadBenchmarkConfig(empty).ValueOrDie().fault_corrupt_node, -1);

  // Round-trip through the serialized form.
  Properties serialized =
      BenchmarkConfigToProperties(result.ValueOrDie());
  auto restored = LoadBenchmarkConfig(serialized);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.ValueOrDie().fault_corrupt_node, 2);
  EXPECT_EQ(restored.ValueOrDie().fault_corrupt_at_ops, 4000u);
  EXPECT_EQ(restored.ValueOrDie().fault_corrupt_bits, 16);
}

TEST(BenchmarkConfigTest, ParsesCorruptTarget) {
  // Default victim class is the SSTable.
  Properties empty;
  EXPECT_EQ(LoadBenchmarkConfig(empty).ValueOrDie().fault_corrupt_target,
            "sstable");

  Properties vlog;
  ASSERT_TRUE(vlog.ParseText("fault.corrupt_sstable=1\n"
                             "fault.corrupt_target=vlog\n")
                  .ok());
  auto result = LoadBenchmarkConfig(vlog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().fault_corrupt_target, "vlog");

  // Round-trip through the serialized form.
  auto restored =
      LoadBenchmarkConfig(BenchmarkConfigToProperties(result.ValueOrDie()));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.ValueOrDie().fault_corrupt_target, "vlog");

  Properties bogus;
  bogus.Set("fault.corrupt_target", "manifest");
  EXPECT_TRUE(LoadBenchmarkConfig(bogus).status().IsInvalidArgument());
}

TEST(BenchmarkConfigTest, CorruptionScheduleValidated) {
  Properties orphan_threshold;
  orphan_threshold.Set("fault.corrupt_at_ops", "100");  // no target node
  EXPECT_TRUE(
      LoadBenchmarkConfig(orphan_threshold).status().IsInvalidArgument());

  Properties zero_bits;
  zero_bits.Set("fault.corrupt_sstable", "0");
  zero_bits.Set("fault.corrupt_bits", "0");
  EXPECT_TRUE(LoadBenchmarkConfig(zero_bits).status().IsInvalidArgument());
}

TEST(BenchmarkConfigTest, FaultScheduleRoundTrips) {
  BenchmarkConfig config;
  config.fault_kill_node = 2;
  config.fault_at_ops = 1000;
  config.fault_restart_after_ops = 500;
  auto restored = LoadBenchmarkConfig(BenchmarkConfigToProperties(config));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.ValueOrDie().fault_kill_node, 2);
  EXPECT_EQ(restored.ValueOrDie().fault_at_ops, 1000u);
  EXPECT_EQ(restored.ValueOrDie().fault_restart_after_ops, 500u);
}

TEST(BenchmarkConfigTest, ParsesNetFaultSchedule) {
  Properties props;
  ASSERT_TRUE(props
                  .ParseText("fault.net_partition_node=2\n"
                             "fault.net_partition_at_ops=5000\n"
                             "fault.net_heal_after_ops=3000\n"
                             "fault.net_delay_node=1\n"
                             "fault.net_delay_ms=50\n"
                             "fault.net_drop_pct=0.01\n"
                             "fault.net_dup_pct=0.02\n"
                             "fault.net_reorder_pct=0.05\n")
                  .ok());
  auto result = LoadBenchmarkConfig(props);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const BenchmarkConfig& config = result.ValueOrDie();
  EXPECT_EQ(config.fault_net_partition_node, 2);
  EXPECT_EQ(config.fault_net_partition_at_ops, 5000u);
  EXPECT_EQ(config.fault_net_heal_after_ops, 3000u);
  EXPECT_EQ(config.fault_net_delay_node, 1);
  EXPECT_EQ(config.fault_net_delay_ms, 50u);
  EXPECT_DOUBLE_EQ(config.fault_net_drop_pct, 0.01);
  EXPECT_DOUBLE_EQ(config.fault_net_dup_pct, 0.02);
  EXPECT_DOUBLE_EQ(config.fault_net_reorder_pct, 0.05);
  EXPECT_TRUE(config.HasNetFaultSchedule());

  // Defaults: no net fault schedule.
  Properties empty;
  auto defaults = LoadBenchmarkConfig(empty);
  EXPECT_EQ(defaults.ValueOrDie().fault_net_partition_node, -1);
  EXPECT_FALSE(defaults.ValueOrDie().HasNetFaultSchedule());

  // Round-trip through the serialized form.
  auto restored =
      LoadBenchmarkConfig(BenchmarkConfigToProperties(result.ValueOrDie()));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.ValueOrDie().fault_net_partition_node, 2);
  EXPECT_EQ(restored.ValueOrDie().fault_net_partition_at_ops, 5000u);
  EXPECT_EQ(restored.ValueOrDie().fault_net_heal_after_ops, 3000u);
  EXPECT_EQ(restored.ValueOrDie().fault_net_delay_node, 1);
  EXPECT_EQ(restored.ValueOrDie().fault_net_delay_ms, 50u);
  EXPECT_DOUBLE_EQ(restored.ValueOrDie().fault_net_drop_pct, 0.01);
}

TEST(BenchmarkConfigTest, NetFaultScheduleValidated) {
  Properties orphan_threshold;
  orphan_threshold.Set("fault.net_partition_at_ops", "100");
  EXPECT_TRUE(
      LoadBenchmarkConfig(orphan_threshold).status().IsInvalidArgument());

  Properties orphan_delay;
  orphan_delay.Set("fault.net_delay_ms", "50");  // no delay node
  EXPECT_TRUE(LoadBenchmarkConfig(orphan_delay).status().IsInvalidArgument());

  Properties zero_delay;
  zero_delay.Set("fault.net_delay_node", "1");  // no delay amount
  EXPECT_TRUE(LoadBenchmarkConfig(zero_delay).status().IsInvalidArgument());

  Properties bad_pct;
  bad_pct.Set("fault.net_drop_pct", "1.5");
  EXPECT_TRUE(LoadBenchmarkConfig(bad_pct).status().IsInvalidArgument());

  Properties negative_pct;
  negative_pct.Set("fault.net_reorder_pct", "-0.1");
  EXPECT_TRUE(LoadBenchmarkConfig(negative_pct).status().IsInvalidArgument());
}

TEST(ReportFilesTest, WritesBothArtifacts) {
  auto env = storage::NewMemEnv();
  BenchmarkResult result;
  result.valid = true;
  result.iterations[0].measured.metrics = {1000, 0, 1000000};
  result.iterations[1].measured.metrics = {1000, 0, 2000000};
  PricedConfiguration pricing =
      PricedConfiguration::ReferenceGatewayConfig(2);
  SutDescription sut;
  sut.nodes = 2;
  ASSERT_TRUE(
      WriteReportFiles(env.get(), "/reports", result, pricing, sut).ok());
  std::string summary;
  ASSERT_TRUE(env->ReadFileToString("/reports/executive_summary.txt",
                                    &summary)
                  .ok());
  EXPECT_NE(summary.find("IoTps"), std::string::npos);
  std::string fdr;
  ASSERT_TRUE(
      env->ReadFileToString("/reports/full_disclosure_report.txt", &fdr)
          .ok());
  EXPECT_NE(fdr.find("Priced configuration"), std::string::npos);
}

}  // namespace
}  // namespace iot
}  // namespace iotdb
