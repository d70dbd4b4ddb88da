// Node crash/recovery lifecycle: degraded-mode writes, hinted handoff,
// catch-up via hint replay or full shard re-copy, and deterministic fault
// injection across the cluster.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "storage/fault_env.h"

namespace iotdb {
namespace cluster {
namespace {

ClusterOptions FaultyClusterOptions(int nodes, uint64_t seed = 7) {
  ClusterOptions options;
  options.num_nodes = nodes;
  options.replication_factor = 3;
  options.storage_options.write_buffer_size = 64 * 1024;
  options.enable_fault_injection = true;
  options.fault_seed = seed;
  return options;
}

std::string Key(int i) { return "key" + std::to_string(i); }

TEST(FailoverTest, CrashLosesUnsyncedStateAndRestartRecovers) {
  auto cluster = Cluster::Start(FaultyClusterOptions(3)).MoveValueUnsafe();
  Client client(cluster.get());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.Put(Key(i), "v" + std::to_string(i)).ok());
  }
  // Quorum writes return before the slowest replica applies; quiesce so the
  // crash below cannot race an in-flight replica write.
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());

  ASSERT_TRUE(cluster->CrashNode(1).ok());
  EXPECT_TRUE(cluster->node(1)->is_down());
  EXPECT_FALSE(cluster->node(1)->is_running());
  EXPECT_TRUE(cluster->node(1)->crashed());
  EXPECT_GE(cluster->fault_env()->counters().crashes, 1u);
  EXPECT_NE(cluster->Describe().find("CRASHED"), std::string::npos);

  ASSERT_TRUE(cluster->RestartNode(1).ok());
  EXPECT_FALSE(cluster->node(1)->is_down());
  EXPECT_TRUE(cluster->node(1)->is_running());
  EXPECT_FALSE(cluster->node(1)->crashed());

  // rf == nodes: node 1 replicates every key, and after catch-up it must
  // hold all of them even though its own unsynced state died.
  for (int i = 0; i < 50; ++i) {
    auto r = cluster->node(1)->Get(cluster->PrimaryNodeFor(Key(i)), Key(i));
    ASSERT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie(), "v" + std::to_string(i));
  }

  FaultRecoveryStats stats = cluster->GetFaultRecoveryStats();
  EXPECT_EQ(stats.node_crashes, 1u);
  EXPECT_EQ(stats.node_restarts, 1u);
  EXPECT_GT(stats.recopied_kvps, 0u);  // crash forces a full re-copy
}

TEST(FailoverTest, KillPrimaryMidLoadThenCatchUpConverges) {
  auto cluster = Cluster::Start(FaultyClusterOptions(3)).MoveValueUnsafe();
  Client client(cluster.get());
  const int victim = cluster->PrimaryNodeFor(Key(0));

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client.Put(Key(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());
  ASSERT_TRUE(cluster->CrashNode(victim).ok());

  // The load continues while the primary of some shards is gone: every
  // write still succeeds (degraded) and hints/stats record the gap.
  for (int i = 200; i < 500; ++i) {
    ASSERT_TRUE(client.Put(Key(i), "v" + std::to_string(i)).ok())
        << "degraded write " << i << " failed";
  }
  EXPECT_GT(cluster->GetNodeStats(victim).skipped_replica_writes, 0u);
  EXPECT_GT(cluster->GetFaultRecoveryStats().hinted_kvps, 0u);

  ASSERT_TRUE(cluster->RestartNode(victim).ok());
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());

  // No stale or missing reads anywhere after convergence...
  for (int i = 0; i < 500; ++i) {
    auto r = client.Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie(), "v" + std::to_string(i));
  }
  // ...and the restarted node's shard data equals its replicas' (rf ==
  // nodes, so every node must hold every key).
  for (int i = 0; i < 500; ++i) {
    auto r = cluster->node(victim)->Get(cluster->PrimaryNodeFor(Key(i)), Key(i));
    ASSERT_TRUE(r.ok()) << "restarted node misses " << Key(i);
    EXPECT_EQ(r.ValueOrDie(), "v" + std::to_string(i));
  }
  EXPECT_EQ(cluster->node(victim)->CountKeysSlow(),
            cluster->node((victim + 1) % 3)->CountKeysSlow());
}

TEST(FailoverTest, HintsReplayOnRestartWithoutCrash) {
  // SetDown + RestartNode: the store never died, so pure hint replay (no
  // re-copy) reconverges the node.
  ClusterOptions options = FaultyClusterOptions(3);
  options.enable_fault_injection = false;
  auto cluster = Cluster::Start(options).MoveValueUnsafe();
  Client client(cluster.get());

  cluster->node(1)->SetDown(true);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client.Put(Key(i), "v").ok());
  }
  ASSERT_TRUE(cluster->RestartNode(1).ok());
  EXPECT_FALSE(cluster->node(1)->is_down());

  FaultRecoveryStats stats = cluster->GetFaultRecoveryStats();
  EXPECT_EQ(stats.hinted_kvps, 100u);
  EXPECT_EQ(stats.hint_replayed_kvps, 100u);
  EXPECT_EQ(stats.recopied_kvps, 0u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cluster->node(1)->Get(cluster->PrimaryNodeFor(Key(i)), Key(i)).ok()) << Key(i);
  }
}

TEST(FailoverTest, HintOverflowFallsBackToFullRecopy) {
  ClusterOptions options = FaultyClusterOptions(3);
  options.enable_fault_injection = false;
  options.max_hints_per_node = 10;
  auto cluster = Cluster::Start(options).MoveValueUnsafe();
  Client client(cluster.get());

  cluster->node(2)->SetDown(true);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client.Put(Key(i), "v").ok());
  }
  ASSERT_TRUE(cluster->RestartNode(2).ok());

  FaultRecoveryStats stats = cluster->GetFaultRecoveryStats();
  EXPECT_EQ(stats.hint_overflows, 1u);
  EXPECT_GE(stats.recopied_kvps, 100u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cluster->node(2)->Get(cluster->PrimaryNodeFor(Key(i)), Key(i)).ok()) << Key(i);
  }
}

TEST(FailoverTest, ConcurrentWritersSurviveCrashAndRestart) {
  auto cluster = Cluster::Start(FaultyClusterOptions(3)).MoveValueUnsafe();
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 300;

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&cluster, t] {
      Client client(cluster.get());
      for (int i = 0; i < kKeysPerThread; ++i) {
        std::string key = "w" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(client.Put(key, "v").ok()) << key;
      }
    });
  }
  // Crash and restart a node while the writers hammer the cluster.
  ASSERT_TRUE(cluster->CrashNode(0).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(cluster->RestartNode(0).ok());
  for (auto& w : writers) w.join();

  // Everything written (acked) must be readable, node 0 included.
  Client client(cluster.get());
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      std::string key = "w" + std::to_string(t) + "-" + std::to_string(i);
      ASSERT_TRUE(client.Get(key).ok()) << key;
    }
  }
}

TEST(FailoverTest, SameFaultSeedSameInjectedFaultCounts) {
  // One node, rf = 1: every store IO runs on that node's channel delivery
  // thread, and the client awaits each write's ack before issuing the next,
  // so the fault env's seeded RNG sees one deterministic IO sequence. (With
  // several replicas the async fan-out interleaves store IO across mailbox
  // threads and the shared RNG stops being reproducible.) max_attempts is
  // raised so no write permanently fails — a hinted write would be replayed
  // by the background drain at a timing-dependent point in the sequence.
  auto run = [](uint64_t seed) {
    ClusterOptions options = FaultyClusterOptions(1, seed);
    options.replication_factor = 1;
    options.retry_policy.max_attempts = 10;
    auto cluster = Cluster::Start(options).MoveValueUnsafe();
    storage::FaultRates rates;
    rates.append_error = 0.2;
    cluster->fault_env()->SetRates(storage::FileClass::kWal, rates);
    Client client(cluster.get());
    for (int i = 0; i < 200; ++i) {
      client.Put(Key(i), "v").ok();  // failures are the point
    }
    return cluster->fault_env()->counters();
  };
  storage::FaultCounters a = run(5);
  storage::FaultCounters b = run(5);
  EXPECT_GT(a.append_errors, 0u);
  EXPECT_EQ(a.append_errors, b.append_errors);
  EXPECT_EQ(a.TotalInjectedErrors(), b.TotalInjectedErrors());
}

TEST(FailoverTest, RetryRecoversFromTransientFaults) {
  // With a low error rate and retries enabled, client ops succeed despite
  // injected WAL faults.
  auto cluster = Cluster::Start(FaultyClusterOptions(3)).MoveValueUnsafe();
  storage::FaultRates rates;
  rates.append_error = 0.05;
  cluster->fault_env()->SetRates(storage::FileClass::kWal, rates);
  Client client(cluster.get());
  int failures = 0;
  for (int i = 0; i < 300; ++i) {
    if (!client.Put(Key(i), "v").ok()) failures++;
  }
  // A write only fails when every replica exhausts its retries; with
  // rf = 3 and 3 attempts at 5% that is ~1e-12 per op.
  EXPECT_EQ(failures, 0);
  cluster->fault_env()->SetInjectionEnabled(false);
}

TEST(FailoverTest, OpDeadlineBoundsRetries) {
  ClusterOptions options = FaultyClusterOptions(1);
  options.replication_factor = 1;
  options.retry_policy.max_attempts = 100;
  options.retry_policy.initial_backoff_micros = 2000;
  options.retry_policy.backoff_multiplier = 1.0;
  options.retry_policy.jitter = 0;
  options.retry_policy.op_deadline_micros = 10000;  // 10 ms budget
  auto cluster = Cluster::Start(options).MoveValueUnsafe();
  storage::FaultRates rates;
  rates.append_error = 1.0;  // every attempt fails
  cluster->fault_env()->SetRates(storage::FileClass::kWal, rates);

  Client client(cluster.get());
  Status s = client.Put("k", "v");
  // The quorum coordinator converts deadline expiry into a typed
  // availability failure and counts it.
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  AvailabilityStats avail = cluster->GetAvailabilityStats();
  EXPECT_EQ(avail.deadline_exceeded, 1u);
  EXPECT_EQ(avail.writes_attempted,
            avail.writes_quorum_met + avail.writes_unavailable);
}

}  // namespace
}  // namespace cluster
}  // namespace iotdb
