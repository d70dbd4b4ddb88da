// Cross-module integration tests: shard routing invariants, retention on a
// replicated cluster, concurrent multi-substation ingest with live
// dashboards, and the kit running against every cluster size the paper
// evaluates.
#include <gtest/gtest.h>

#include <thread>

#include "cluster/cluster.h"
#include "iot/benchmark_driver.h"
#include "iot/kvp.h"
#include "iot/retention.h"
#include "ycsb/bindings.h"

namespace iotdb {
namespace iot {
namespace {

TEST(ShardKeyTest, IsIdempotent) {
  // Cluster::Scan hashes the caller-provided shard key directly, so the
  // extractor must be a fixed point on its own output.
  std::string row = KvpCodec::EncodeKey("sub07", "mis_h2_004", 123456789);
  Slice once = TpcxIotShardKey(row);
  Slice twice = TpcxIotShardKey(once);
  EXPECT_EQ(once.ToString(), twice.ToString());
}

TEST(ShardKeyTest, AllReadingsOfASensorShareAShard) {
  cluster::ClusterOptions options;
  options.num_nodes = 8;
  options.shard_key_fn = TpcxIotShardKey;
  auto cluster = cluster::Cluster::Start(options).MoveValueUnsafe();
  int first = -1;
  for (uint64_t ts = 0; ts < 100000; ts += 13337) {
    std::string row = KvpCodec::EncodeKey("sub07", "mis_h2_004", ts);
    int primary = cluster->PrimaryNodeFor(row);
    if (first < 0) first = primary;
    EXPECT_EQ(primary, first) << ts;
  }
}

TEST(ShardKeyTest, DifferentSensorsSpreadAcrossNodes) {
  cluster::ClusterOptions options;
  options.num_nodes = 8;
  options.shard_key_fn = TpcxIotShardKey;
  auto cluster = cluster::Cluster::Start(options).MoveValueUnsafe();
  std::set<int> nodes;
  for (const SensorType& sensor : SensorCatalog::Default().sensors()) {
    std::string row = KvpCodec::EncodeKey("sub01", sensor.key, 42);
    nodes.insert(cluster->PrimaryNodeFor(row));
  }
  EXPECT_EQ(nodes.size(), 8u) << "200 sensors should cover all 8 nodes";
}

TEST(RetentionClusterTest, AgesOutAcrossReplicas) {
  ManualClock clock(10000ull * 1000000);
  SensorDataRetentionFilter filter(1000ull * 1000000, &clock);

  cluster::ClusterOptions options;
  options.num_nodes = 3;
  options.shard_key_fn = TpcxIotShardKey;
  options.storage_options.compaction_filter = &filter;
  auto cluster = cluster::Cluster::Start(options).MoveValueUnsafe();
  cluster::Client client(cluster.get());

  // Half stale, half fresh.
  for (int i = 0; i < 40; ++i) {
    uint64_t age = (i % 2 == 0) ? 5000 + i : 10 + i;
    std::string key = KvpCodec::EncodeKey(
        "sub01", "ltc_gas_000", clock.NowMicros() - age * 1000000);
    ASSERT_TRUE(client.Put(key, "reading").ok());
  }
  // Puts ack at quorum; drain the slow replica before compacting so no
  // write lands in a memtable the filter already walked.
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    ASSERT_TRUE(cluster->node(n)->store()->CompactAll().ok());
  }
  // Fresh readings remain reachable through the client; stale are gone.
  uint64_t live = 0;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    live += cluster->node(n)->CountKeysSlow();
  }
  // 20 fresh keys x 3 replicas.
  EXPECT_EQ(live, 60u);
}

TEST(MultiSubstationIntegrationTest, ConcurrentDriversShareTheCluster) {
  cluster::ClusterOptions options;
  options.num_nodes = 4;
  options.shard_key_fn = TpcxIotShardKey;
  auto cluster = cluster::Cluster::Start(options).MoveValueUnsafe();
  ycsb::ClusterDB db(cluster.get());

  constexpr int kDrivers = 3;
  constexpr uint64_t kKvpsEach = 12000;
  std::vector<std::thread> threads;
  std::vector<DriverResult> results(kDrivers);
  for (int i = 0; i < kDrivers; ++i) {
    threads.emplace_back([&db, &results, i] {
      DriverOptions driver_options;
      driver_options.substation_key = "sub" + std::to_string(i);
      driver_options.total_kvps = kKvpsEach;
      driver_options.batch_size = 400;
      driver_options.seed = 100 + i;
      DriverInstance driver(driver_options, &db);
      results[i] = driver.Run();
    });
  }
  for (auto& thread : threads) thread.join();
  // Writes return at quorum; quiesce so every primary apply (and any
  // straggler hint) lands before the per-node stats are compared.
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());

  uint64_t queries = 0;
  for (const DriverResult& r : results) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.kvps_ingested, kKvpsEach);
    queries += r.queries_executed;
  }
  EXPECT_EQ(queries, kDrivers * 5u);  // one 10k batch each -> 5 queries
  // Drivers retry Unavailable batches, so a loaded run can apply a batch
  // more than once; applies are at-least-once but keys are unique, so the
  // replicated key count is still exact.
  EXPECT_GE(cluster->GetAggregateStats().primary_writes,
            kDrivers * kKvpsEach);
  uint64_t keys = 0;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    keys += cluster->node(n)->CountKeysSlow();
  }
  EXPECT_EQ(keys, kDrivers * kKvpsEach * 3);  // rf 3 on 4 nodes
}

class KitOnClusterSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(KitOnClusterSizeTest, BenchmarkRunsOnPaperClusterSizes) {
  cluster::ClusterOptions options;
  options.num_nodes = GetParam();
  options.shard_key_fn = TpcxIotShardKey;
  auto sut = cluster::Cluster::Start(options).MoveValueUnsafe();

  BenchmarkConfig config;
  config.num_driver_instances = 2;
  config.total_kvps = 8000;
  config.batch_size = 400;
  config.min_run_seconds = 0;
  config.min_per_sensor_rate = 0;
  config.skip_warmup = true;
  BenchmarkDriver driver(config, sut.get());
  BenchmarkResult result = driver.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.valid) << result.invalid_reason;
  EXPECT_GT(result.IoTps(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, KitOnClusterSizeTest,
                         ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace iot
}  // namespace iotdb
