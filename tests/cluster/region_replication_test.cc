// Replication of each shard's log: every replica logs a batch at the
// coordinator's sequences, once; the leader's flushes reach its backups as
// file installs; a rotten backup is healed by a copy of the leader's region.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "storage/fault_env.h"
#include "storage/kvstore.h"
#include "storage/write_batch.h"

namespace iotdb {
namespace cluster {
namespace {

std::string Key(int i) { return "key" + std::to_string(i); }
std::string Value(int i) { return "value" + std::to_string(i); }

ClusterOptions RegionOptions(int nodes) {
  ClusterOptions options;
  options.num_nodes = nodes;
  options.replication_factor = 3;
  options.storage_options.write_buffer_size = 1 << 20;
  return options;
}

// The record bytes of every batch a region still logs, in log order.
std::vector<std::string> LoggedRecords(storage::KVStore* region) {
  std::vector<storage::WriteBatch> batches;
  EXPECT_TRUE(region->LoggedBatches(&batches).ok());
  std::vector<std::string> records;
  for (const auto& batch : batches) {
    records.push_back(batch.Contents().ToString());
  }
  return records;
}

// Every replica of every shard, leader first.
std::vector<std::vector<int>> ShardReplicas(Cluster* cluster) {
  std::vector<std::vector<int>> shards(cluster->num_nodes());
  for (int i = 0;; ++i) {
    const std::string key = Key(i);
    const std::vector<int> replicas = cluster->ReplicaNodesFor(key);
    shards[replicas[0]] = replicas;
    bool all = true;
    for (const auto& s : shards) all = all && !s.empty();
    if (all) break;
  }
  return shards;
}

TEST(RegionReplicationTest, ReplicasLogIdenticalRecordsAtIdenticalSequences) {
  constexpr int kRounds = 3;
  auto cluster = Cluster::Start(RegionOptions(4)).MoveValueUnsafe();
  Client client(cluster.get());
  std::vector<std::pair<std::string, std::string>> kvps;
  for (int i = 0; i < 400; ++i) kvps.emplace_back(Key(i), Value(i));
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(client.PutBatch(kvps).ok());
  }
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());

  for (const std::vector<int>& replicas : ShardReplicas(cluster.get())) {
    ASSERT_EQ(replicas.size(), 3u);
    const int shard = replicas[0];
    // The coordinator's encoding, redone here: each round's rows of the
    // shard in input order, at the consecutive sequences that follow the
    // last round's. Every replica logs exactly these records, and they are
    // what recovery reads.
    std::vector<std::string> expected;
    storage::SequenceNumber next = 1;
    for (int round = 0; round < kRounds; ++round) {
      storage::WriteBatch batch;
      for (const auto& [key, value] : kvps) {
        if (cluster->PrimaryNodeFor(key) == shard) batch.Put(key, value);
      }
      ASSERT_GT(batch.Count(), 0) << "shard " << shard;
      batch.SetSequence(next);
      next += static_cast<storage::SequenceNumber>(batch.Count());
      expected.push_back(batch.Contents().ToString());
    }
    std::sort(expected.begin(), expected.end());
    for (int r : replicas) {
      std::vector<std::string> logged =
          LoggedRecords(cluster->node(r)->region(shard));
      // Arrival order may differ; the records may not.
      std::sort(logged.begin(), logged.end());
      EXPECT_EQ(logged, expected) << "node " << r << " shard " << shard;
    }
  }
}

TEST(RegionReplicationTest, LeaderFlushInstallsOnEveryBackup) {
  auto cluster = Cluster::Start(RegionOptions(4)).MoveValueUnsafe();
  Client client(cluster.get());
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(client.Put(Key(i), Value(i) + std::string(600, 'x')).ok());
  }
  ASSERT_TRUE(cluster->FlushAll().ok());
  storage::Env* env = cluster->options().storage_options.env;
  auto files = [env](const std::string& dir) {
    std::set<std::string> out;
    const std::vector<std::string> names =
        env->ListDir(dir).MoveValueUnsafe();
    for (const std::string& name : names) {
      if (name.find(".sst") != std::string::npos ||
          name.find(".vlog") != std::string::npos) {
        out.insert(name);
      }
    }
    return out;
  };
  for (const std::vector<int>& replicas : ShardReplicas(cluster.get())) {
    const int shard = replicas[0];
    const std::set<std::string> leader = files(cluster->node(shard)->data_dir());
    ASSERT_FALSE(leader.empty());
    for (size_t i = 1; i < replicas.size(); ++i) {
      Node* backup = cluster->node(replicas[i]);
      EXPECT_EQ(files(backup->RegionDir(shard)), leader)
          << "node " << replicas[i] << " shard " << shard;
      storage::KVStoreStats stats = backup->region(shard)->GetStats();
      EXPECT_EQ(stats.memtable_flushes, 0u);
      EXPECT_EQ(stats.compactions, 0u);
      EXPECT_GT(stats.install_bytes, 0u);
    }
  }
  for (int i = 0; i < 600; ++i) {
    const int shard = cluster->PrimaryNodeFor(Key(i));
    for (int n : cluster->ReplicaNodesFor(Key(i))) {
      auto r = cluster->node(n)->Get(shard, Key(i));
      ASSERT_TRUE(r.ok()) << "node " << n << " " << Key(i);
    }
  }
}

TEST(RegionReplicationTest, DuplicatesAndReordersApplyEachBatchOnce) {
  ClusterOptions options = RegionOptions(3);
  options.enable_net_fault_injection = true;
  options.net_fault_seed = 9;
  auto cluster = Cluster::Start(options).MoveValueUnsafe();
  FaultChannel* net = cluster->net_fault_channel();
  net->SetDuplicateProbability(0.5);
  net->SetReorderProbability(0.5, 2'000);
  Client client(cluster.get());
  for (int b = 0; b < 20; ++b) {
    std::vector<std::pair<std::string, std::string>> kvps;
    for (int i = b * 30; i < (b + 1) * 30; ++i) {
      kvps.emplace_back(Key(i), Value(i));
    }
    ASSERT_TRUE(client.PutBatch(kvps).ok());
  }
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());
  EXPECT_GT(net->GetCounters().duplicated, 0u);
  EXPECT_GT(net->GetCounters().reordered, 0u);

  for (int shard = 0; shard < 3; ++shard) {
    std::vector<std::string> expected;
    for (int n = 0; n < 3; ++n) {
      std::vector<std::string> logged =
          LoggedRecords(cluster->node(n)->region(shard));
      std::sort(logged.begin(), logged.end());
      // Applied once: no record twice.
      EXPECT_EQ(std::adjacent_find(logged.begin(), logged.end()),
                logged.end())
          << "node " << n << " shard " << shard;
      if (n == 0) {
        expected = logged;
      } else {
        EXPECT_EQ(logged, expected) << "node " << n << " shard " << shard;
      }
      EXPECT_EQ(cluster->node(n)->region(shard)->CountKeysSlow(),
                cluster->node(0)->region(shard)->CountKeysSlow());
    }
  }
  uint64_t puts = 0;
  for (int n = 0; n < 3; ++n) {
    for (storage::KVStore* region : cluster->node(n)->regions()) {
      puts += region->GetStats().puts;
    }
  }
  EXPECT_EQ(puts, 3u * 600u);  // every kvp on every replica, once
  // A replica counts a write when its region applies the batch: a
  // duplicate delivery of a batch it holds is no second write.
  uint64_t writes = 0;
  for (int n = 0; n < 3; ++n) writes += cluster->GetNodeStats(n).writes;
  EXPECT_EQ(writes, 3u * 600u);
}

TEST(RegionReplicationTest, RotInABackupIsRepairedByACopyOfTheLeader) {
  ClusterOptions options = RegionOptions(3);
  options.storage_options.write_buffer_size = 64 * 1024;
  options.enable_fault_injection = true;
  options.fault_seed = 4;
  auto cluster = Cluster::Start(options).MoveValueUnsafe();
  Client client(cluster.get());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(client.Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(cluster->FlushAll().ok());

  // Node 1 backs shard 0: rot one of the tables it installed from node 0.
  Node* victim = cluster->node(1);
  storage::KVStore* region = victim->region(0);
  auto damaged = cluster->fault_env()->CorruptRandomFile(
      victim->RegionDir(0), storage::FileClass::kSSTable, 16);
  ASSERT_TRUE(damaged.ok()) << damaged.status().ToString();
  storage::ScrubReport report;
  ASSERT_TRUE(region->VerifyIntegrity(&report).ok());
  ASSERT_EQ(report.quarantined_files, 1u);
  EXPECT_TRUE(victim->under_repair());
  ASSERT_EQ(cluster->PendingRepairNodes(), std::vector<int>{1});

  ASSERT_TRUE(cluster->RunPendingRepairs().ok());
  EXPECT_FALSE(victim->under_repair());
  EXPECT_GT(cluster->GetFaultRecoveryStats().recopied_kvps, 0u);
  region = victim->region(0);
  storage::ScrubReport healed;
  ASSERT_TRUE(region->VerifyIntegrity(&healed).ok());
  EXPECT_EQ(healed.corrupt_files, 0u);
  for (int i = 0; i < 300; ++i) {
    const int shard = cluster->PrimaryNodeFor(Key(i));
    auto r = victim->Get(shard, Key(i));
    ASSERT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie(), Value(i));
  }
  EXPECT_EQ(region->CountKeysSlow(),
            cluster->node(0)->store()->CountKeysSlow());
}

}  // namespace
}  // namespace cluster
}  // namespace iotdb
