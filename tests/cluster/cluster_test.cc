#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "iot/benchmark_driver.h"  // TpcxIotShardKey
#include "iot/kvp.h"

namespace iotdb {
namespace cluster {
namespace {

ClusterOptions SmallClusterOptions(int nodes, int rf = 3) {
  ClusterOptions options;
  options.num_nodes = nodes;
  options.replication_factor = rf;
  options.storage_options.write_buffer_size = 64 * 1024;
  return options;
}

TEST(ClusterTest, StartCreatesNodes) {
  auto cluster = Cluster::Start(SmallClusterOptions(4)).MoveValueUnsafe();
  EXPECT_EQ(cluster->num_nodes(), 4);
  EXPECT_EQ(cluster->effective_replication(), 3);
}

TEST(ClusterTest, EffectiveReplicationCapsAtNodeCount) {
  auto cluster = Cluster::Start(SmallClusterOptions(2)).MoveValueUnsafe();
  EXPECT_EQ(cluster->effective_replication(), 2);
}

TEST(ClusterTest, ZeroNodesRejected) {
  EXPECT_FALSE(Cluster::Start(SmallClusterOptions(0)).ok());
}

TEST(ClusterTest, ReplicaSetsAreDistinctNodes) {
  auto cluster = Cluster::Start(SmallClusterOptions(8)).MoveValueUnsafe();
  for (int i = 0; i < 100; ++i) {
    std::string key = "key" + std::to_string(i);
    std::vector<int> replicas = cluster->ReplicaNodesFor(key);
    ASSERT_EQ(replicas.size(), 3u);
    std::set<int> distinct(replicas.begin(), replicas.end());
    EXPECT_EQ(distinct.size(), 3u);
    EXPECT_EQ(replicas[0], cluster->PrimaryNodeFor(key));
  }
}

TEST(ClusterTest, PutReplicatesToAllReplicas) {
  auto cluster = Cluster::Start(SmallClusterOptions(5)).MoveValueUnsafe();
  Client client(cluster.get());
  ASSERT_TRUE(client.Put("mykey", "myvalue").ok());
  // Put returns at quorum; wait for the laggard replica's async apply.
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());

  int copies = 0;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    auto r = cluster->node(n)->store()->Get(storage::ReadOptions(), "mykey");
    if (r.ok() && r.ValueOrDie() == "myvalue") copies++;
  }
  EXPECT_EQ(copies, 3);
}

TEST(ClusterTest, GetRoutesToReplicas) {
  auto cluster = Cluster::Start(SmallClusterOptions(4)).MoveValueUnsafe();
  Client client(cluster.get());
  ASSERT_TRUE(client.Put("k", "v").ok());
  auto r = client.Get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), "v");
  EXPECT_TRUE(client.Get("absent").status().IsNotFound());
}

TEST(ClusterTest, GetFailsOverWhenPrimaryDown) {
  auto cluster = Cluster::Start(SmallClusterOptions(4)).MoveValueUnsafe();
  Client client(cluster.get());
  ASSERT_TRUE(client.Put("k", "v").ok());
  int primary = cluster->PrimaryNodeFor("k");
  cluster->node(primary)->SetDown(true);
  auto r = client.Get("k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie(), "v");
  cluster->node(primary)->SetDown(false);
}

TEST(ClusterTest, WritesToDownReplicaSucceedDegraded) {
  auto cluster = Cluster::Start(SmallClusterOptions(3)).MoveValueUnsafe();
  Client client(cluster.get());
  int primary = cluster->PrimaryNodeFor("k");
  cluster->node(primary)->SetDown(true);

  // One of three replicas is down: the write succeeds in degraded mode and
  // the missed replica write is buffered as a hint.
  EXPECT_TRUE(client.Put("k", "v").ok());
  EXPECT_EQ(cluster->GetFaultRecoveryStats().hinted_kvps, 1u);
  EXPECT_EQ(cluster->GetNodeStats(primary).skipped_replica_writes, 1u);
  EXPECT_EQ(client.Get("k").ValueOrDie(), "v");
  EXPECT_NE(cluster->Describe().find("skipped"), std::string::npos);

  // All replicas down: nothing can acknowledge the write.
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    cluster->node(n)->SetDown(true);
  }
  EXPECT_FALSE(client.Put("k2", "v").ok());
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    cluster->node(n)->SetDown(false);
  }
}

TEST(ClusterTest, BatchedPutGroupsByPrimary) {
  auto cluster = Cluster::Start(SmallClusterOptions(4)).MoveValueUnsafe();
  Client client(cluster.get());
  std::vector<std::pair<std::string, std::string>> kvps;
  for (int i = 0; i < 500; ++i) {
    kvps.emplace_back("batch" + std::to_string(i), "v" + std::to_string(i));
  }
  ASSERT_TRUE(client.PutBatch(kvps).ok());
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());
  for (int i = 0; i < 500; i += 97) {
    auto r = client.Get("batch" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.ValueOrDie(), "v" + std::to_string(i));
  }
  NodeStats total = cluster->GetAggregateStats();
  EXPECT_EQ(total.primary_writes, 500u);
  EXPECT_EQ(total.writes, 1500u);  // 3 copies of each
}

TEST(ClusterTest, ShardedScanStaysOrderedWithinShard) {
  ClusterOptions options = SmallClusterOptions(4);
  options.shard_key_fn = iot::TpcxIotShardKey;
  auto cluster = Cluster::Start(options).MoveValueUnsafe();
  Client client(cluster.get());

  // Readings of one sensor across time must land on one shard and scan in
  // time order.
  std::vector<std::pair<std::string, std::string>> kvps;
  for (uint64_t ts = 1000; ts < 1100; ++ts) {
    kvps.emplace_back(iot::KvpCodec::EncodeKey("sub1", "pmu_phasor_000", ts),
                      "v" + std::to_string(ts));
  }
  ASSERT_TRUE(client.PutBatch(kvps).ok());
  // The write acks at quorum, but the scan reads the first live replica,
  // which may be the one still applying the batch.
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());

  std::string start = iot::KvpCodec::EncodeKey("sub1", "pmu_phasor_000",
                                               1020);
  std::string end = iot::KvpCodec::EncodeKey("sub1", "pmu_phasor_000", 1030);
  std::string shard(
      iot::KvpCodec::ShardPrefixOf(Slice(start)).ToStringView());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(client.Scan(shard, start, end, 0, &rows).ok());
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows.front().second, "v1020");
  EXPECT_EQ(rows.back().second, "v1029");
}

TEST(ClusterTest, PurgeAllEmptiesEveryNode) {
  auto cluster = Cluster::Start(SmallClusterOptions(3)).MoveValueUnsafe();
  Client client(cluster.get());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client.Put("k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(cluster->PurgeAll().ok());
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    EXPECT_EQ(cluster->node(n)->store()->CountKeysSlow(), 0u);
  }
  EXPECT_EQ(cluster->GetAggregateStats().writes, 0u);  // counters reset
  // And the cluster remains usable.
  ASSERT_TRUE(client.Put("after", "purge").ok());
  EXPECT_EQ(client.Get("after").ValueOrDie(), "purge");
}

TEST(ClusterTest, MultiGetMixesHitsAndMisses) {
  auto cluster = Cluster::Start(SmallClusterOptions(3)).MoveValueUnsafe();
  Client client(cluster.get());
  ASSERT_TRUE(client.Put("k1", "v1").ok());
  ASSERT_TRUE(client.Put("k3", "v3").ok());

  std::vector<std::optional<std::string>> values;
  ASSERT_TRUE(client.MultiGet({"k1", "k2", "k3"}, &values).ok());
  ASSERT_EQ(values.size(), 3u);
  ASSERT_TRUE(values[0].has_value());
  EXPECT_EQ(*values[0], "v1");
  EXPECT_FALSE(values[1].has_value());
  ASSERT_TRUE(values[2].has_value());
  EXPECT_EQ(*values[2], "v3");
}

TEST(ClusterTest, DescribeReportsLivenessAndLoad) {
  auto cluster = Cluster::Start(SmallClusterOptions(3)).MoveValueUnsafe();
  Client client(cluster.get());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.Put("key" + std::to_string(i), "v").ok());
  }
  cluster->node(1)->SetDown(true);
  std::string description = cluster->Describe();
  EXPECT_NE(description.find("3 nodes"), std::string::npos);
  EXPECT_NE(description.find("DOWN"), std::string::npos);
  EXPECT_NE(description.find("primary kvps"), std::string::npos);
  cluster->node(1)->SetDown(false);
}

TEST(ClusterTest, ImbalanceIsZeroWhenIdleAndGrowsWithSkew) {
  auto cluster = Cluster::Start(SmallClusterOptions(4)).MoveValueUnsafe();
  EXPECT_DOUBLE_EQ(cluster->PrimaryLoadImbalance(), 0.0);

  // Hammer one shard key: all primaries land on one node -> high CoV.
  Client client(cluster.get());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client.Put("hotkey", "v" + std::to_string(i)).ok());
  }
  EXPECT_GT(cluster->PrimaryLoadImbalance(), 1.0);
}

TEST(ClusterTest, ConcurrentClientsAreSafe) {
  auto cluster = Cluster::Start(SmallClusterOptions(4)).MoveValueUnsafe();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cluster, t] {
      Client client(cluster.get());
      for (int i = 0; i < 200; ++i) {
        std::string key = "t" + std::to_string(t) + "k" + std::to_string(i);
        ASSERT_TRUE(client.Put(key, "v").ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());
  Client client(cluster.get());
  EXPECT_EQ(client.Get("t0k0").ValueOrDie(), "v");
  EXPECT_EQ(client.Get("t3k199").ValueOrDie(), "v");
  EXPECT_EQ(cluster->GetAggregateStats().primary_writes, 800u);
}

}  // namespace
}  // namespace cluster
}  // namespace iotdb
