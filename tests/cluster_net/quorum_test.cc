// Quorum replication under injected network faults: partitions, duplicate
// and reordered acks, straggler replicas, and the no-lost-acknowledged-write
// guarantee after partition heal + hint drain. The acceptance scenario of
// the availability work: a 1-of-3 replica partition over 30% of a run must
// keep every write quorum-met and lose nothing once hints drain.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"

namespace iotdb {
namespace cluster {
namespace {

ClusterOptions NetFaultyOptions(int nodes, uint64_t seed = 21) {
  ClusterOptions options;
  options.num_nodes = nodes;
  options.replication_factor = 3;
  options.storage_options.write_buffer_size = 64 * 1024;
  options.enable_net_fault_injection = true;
  options.net_fault_seed = seed;
  // Scaled-down timeouts so partition scenarios resolve in test time.
  options.straggler_timeout_micros = 20'000;
  options.write_timeout_micros = 500'000;
  options.hint_drain_interval_micros = 5'000;
  return options;
}

std::string Key(int i) { return "nk" + std::to_string(i); }

TEST(QuorumNetTest, PartitionedReplicaForThirtyPercentOfRunLosesNothing) {
  constexpr int kWrites = 3000;
  constexpr int kPartitionStart = kWrites * 35 / 100;
  constexpr int kPartitionEnd = kPartitionStart + kWrites * 30 / 100;

  auto cluster = Cluster::Start(NetFaultyOptions(3)).MoveValueUnsafe();
  FaultChannel* net = cluster->net_fault_channel();
  ASSERT_NE(net, nullptr);
  ASSERT_EQ(cluster->write_quorum(), 2);

  Client client(cluster.get());
  const int victim = 2;
  for (int i = 0; i < kWrites; ++i) {
    if (i == kPartitionStart) net->Isolate(victim);
    if (i == kPartitionEnd) net->Heal(victim);
    ASSERT_TRUE(client.Put(Key(i), "v" + std::to_string(i)).ok())
        << "write " << i << " failed";
  }
  net->HealAll();
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());

  // Every write succeeded, so every write met quorum: >= 99% (here 100%)
  // availability through a partition covering 30% of the run.
  AvailabilityStats avail = cluster->GetAvailabilityStats();
  EXPECT_GE(avail.writes_attempted, static_cast<uint64_t>(kWrites));
  EXPECT_GE(static_cast<double>(avail.writes_quorum_met),
            0.99 * static_cast<double>(avail.writes_attempted));
  EXPECT_EQ(avail.writes_attempted,
            avail.writes_quorum_met + avail.writes_unavailable);
  // The partitioned replica's misses were absorbed as straggler hints.
  EXPECT_GT(avail.straggler_hinted_kvps, 0u);
  EXPECT_GT(net->GetCounters().partition_blocked, 0u);

  // Zero acknowledged writes lost: full read-back through the client AND
  // directly on every node's region of each key's shard (rf == nodes, so
  // each node holds all).
  for (int i = 0; i < kWrites; ++i) {
    auto r = client.Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie(), "v" + std::to_string(i));
  }
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    for (int i = 0; i < kWrites; ++i) {
      auto r = cluster->node(n)
                   ->region(cluster->PrimaryNodeFor(Key(i)))
                   ->Get(storage::ReadOptions(), Key(i));
      ASSERT_TRUE(r.ok()) << "node " << n << " misses " << Key(i);
    }
  }
}

TEST(QuorumNetTest, DuplicateAckDeliveryIsIdempotent) {
  auto cluster = Cluster::Start(NetFaultyOptions(3)).MoveValueUnsafe();
  cluster->net_fault_channel()->SetDuplicateProbability(1.0);

  Client client(cluster.get());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.Put(Key(i), "v").ok());
  }
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());

  // Every message was duplicated: requests re-apply the same rows (benign)
  // and acks hit already-resolved slots, which are counted and dropped.
  AvailabilityStats avail = cluster->GetAvailabilityStats();
  EXPECT_GT(avail.duplicate_acks_ignored, 0u);
  EXPECT_EQ(avail.writes_attempted,
            avail.writes_quorum_met + avail.writes_unavailable);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(client.Get(Key(i)).ValueOrDie(), "v");
  }
}

TEST(QuorumNetTest, ReorderedAcksResolvePipelinedBatches) {
  auto cluster = Cluster::Start(NetFaultyOptions(4)).MoveValueUnsafe();
  cluster->net_fault_channel()->SetReorderProbability(
      1.0, /*window_micros=*/2000);

  // PutBatch pipelines one quorum write per primary shard group: all fan
  // out before any is awaited, so reordered acks interleave across them.
  Client client(cluster.get());
  std::vector<std::pair<std::string, std::string>> kvps;
  for (int i = 0; i < 400; ++i) {
    kvps.emplace_back(Key(i), "v" + std::to_string(i));
  }
  ASSERT_TRUE(client.PutBatch(kvps).ok());
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());

  EXPECT_GT(cluster->net_fault_channel()->GetCounters().reordered, 0u);
  AvailabilityStats avail = cluster->GetAvailabilityStats();
  EXPECT_EQ(avail.writes_attempted,
            avail.writes_quorum_met + avail.writes_unavailable);
  EXPECT_EQ(avail.writes_unavailable, 0u);
  for (int i = 0; i < 400; i += 37) {
    EXPECT_EQ(client.Get(Key(i)).ValueOrDie(), "v" + std::to_string(i));
  }
}

TEST(QuorumNetTest, PartitionHealDrainsHintsToIsolatedReplica) {
  auto cluster = Cluster::Start(NetFaultyOptions(3)).MoveValueUnsafe();
  FaultChannel* net = cluster->net_fault_channel();
  Client client(cluster.get());

  net->Isolate(1);
  for (int i = 0; i < 100; ++i) {
    // 2-of-3 quorum met by the reachable replicas.
    ASSERT_TRUE(client.Put(Key(i), "v").ok()) << "write " << i;
  }
  net->Heal(1);
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());

  AvailabilityStats avail = cluster->GetAvailabilityStats();
  EXPECT_EQ(avail.writes_unavailable, 0u);
  EXPECT_GT(avail.straggler_hinted_kvps, 0u);
  // The formerly-partitioned replica converged via hint replay.
  for (int i = 0; i < 100; ++i) {
    auto r = cluster->node(1)
                 ->region(cluster->PrimaryNodeFor(Key(i)))
                 ->Get(storage::ReadOptions(), Key(i));
    ASSERT_TRUE(r.ok()) << "node 1 misses " << Key(i);
  }
}

TEST(QuorumNetTest, SlowReplicaIsHintedPastStragglerWindow) {
  auto cluster = Cluster::Start(NetFaultyOptions(3)).MoveValueUnsafe();
  // Every message into node 2 takes 60 ms — three times the straggler
  // window — so quorum completes on the fast replicas and the laggard's
  // rows are swept into hints.
  cluster->net_fault_channel()->SetEndpointDelay(2, 60'000, 60'000);

  Client client(cluster.get());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client.Put(Key(i), "v").ok());
  }
  cluster->net_fault_channel()->SetEndpointDelay(2, 0, 0);
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());

  AvailabilityStats avail = cluster->GetAvailabilityStats();
  EXPECT_EQ(avail.writes_unavailable, 0u);
  EXPECT_GT(avail.straggler_hinted_kvps, 0u);
  for (int i = 0; i < 30; ++i) {
    auto r = cluster->node(2)
                 ->region(cluster->PrimaryNodeFor(Key(i)))
                 ->Get(storage::ReadOptions(), Key(i));
    ASSERT_TRUE(r.ok()) << "node 2 misses " << Key(i);
  }
}

TEST(QuorumNetTest, AllReplicasPartitionedFailsFastWithUnavailable) {
  ClusterOptions options = NetFaultyOptions(3);
  options.write_timeout_micros = 100'000;  // fail fast for the test
  auto cluster = Cluster::Start(options).MoveValueUnsafe();
  FaultChannel* net = cluster->net_fault_channel();
  for (int n = 0; n < 3; ++n) net->Isolate(n);

  Client client(cluster.get());
  Status s = client.Put("k", "v");
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();

  AvailabilityStats avail = cluster->GetAvailabilityStats();
  EXPECT_EQ(avail.writes_unavailable, 1u);
  EXPECT_EQ(avail.deadline_exceeded, 1u);
  EXPECT_EQ(avail.writes_attempted,
            avail.writes_quorum_met + avail.writes_unavailable);

  // Healing restores availability.
  net->HealAll();
  EXPECT_TRUE(client.Put("k2", "v").ok());
}

TEST(QuorumNetTest, ReplicaCrashMidFanoutHintsOrFails) {
  // Satellite regression: a replica failing after the primary acked must
  // never yield a successful write whose rows silently miss that replica —
  // each acknowledged write either reached it or left a hint that replays.
  ClusterOptions options = NetFaultyOptions(3);
  options.enable_fault_injection = true;  // CrashNode loses unsynced state
  options.fault_seed = 3;
  auto cluster = Cluster::Start(options).MoveValueUnsafe();

  constexpr int kWrites = 400;
  std::vector<bool> acked(kWrites, false);
  std::thread writer([&cluster, &acked] {
    Client client(cluster.get());
    for (int i = 0; i < kWrites; ++i) {
      acked[i] = client.Put(Key(i), "v").ok();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(cluster->CrashNode(1).ok());
  writer.join();

  ASSERT_TRUE(cluster->RestartNode(1).ok());
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());

  // Every acknowledged write must be present on the once-crashed replica
  // (restart replays hints / copies regions; rf == nodes, so node 1
  // replicates every key).
  int acked_count = 0;
  for (int i = 0; i < kWrites; ++i) {
    if (!acked[i]) continue;
    acked_count++;
    auto r = cluster->node(1)
                 ->region(cluster->PrimaryNodeFor(Key(i)))
                 ->Get(storage::ReadOptions(), Key(i));
    ASSERT_TRUE(r.ok()) << "acked write " << Key(i)
                        << " missing from crashed replica: "
                        << r.status().ToString();
  }
  EXPECT_GT(acked_count, 0);
}

}  // namespace
}  // namespace cluster
}  // namespace iotdb
