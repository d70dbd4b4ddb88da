// End-to-end corruption resilience: bit-rot injected into one replica is
// detected by the scrub, the damaged file is quarantined, reads are
// transparently re-served from healthy replicas, and a shard re-copy
// restores full replication without downtime.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "storage/fault_env.h"
#include "storage/kvstore.h"

namespace iotdb {
namespace cluster {
namespace {

ClusterOptions CorruptibleClusterOptions(int nodes) {
  ClusterOptions options;
  options.num_nodes = nodes;
  options.replication_factor = 3;
  options.storage_options.write_buffer_size = 64 * 1024;
  options.enable_fault_injection = true;
  options.fault_seed = 21;
  return options;
}

std::string Key(int i) { return "key" + std::to_string(i); }
std::string Value(int i) { return "value" + std::to_string(i); }

// Routes "<sensor>#<seq>" keys by their sensor prefix.
Slice SensorShardKey(const Slice& key) {
  const void* hash = memchr(key.data(), '#', key.size());
  if (hash == nullptr) return key;
  return Slice(key.data(),
               static_cast<size_t>(static_cast<const char*>(hash) -
                                   key.data()));
}

TEST(CorruptionResilienceTest, ScrubQuarantineReadRepairAndRecopy) {
  const int kKeys = 300;
  auto cluster =
      Cluster::Start(CorruptibleClusterOptions(3)).MoveValueUnsafe();
  Client client(cluster.get());
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(client.Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(cluster->FlushAll().ok());

  // Bit-rot one of node 0's SSTables, then scrub that store.
  Node* victim = cluster->node(0);
  auto damaged = cluster->fault_env()->CorruptRandomFile(
      victim->data_dir(), storage::FileClass::kSSTable, 32);
  ASSERT_TRUE(damaged.ok()) << damaged.status().ToString();

  storage::ScrubReport report;
  ASSERT_TRUE(victim->store()->VerifyIntegrity(&report).ok());
  ASSERT_EQ(report.quarantined_files, 1u);
  EXPECT_TRUE(victim->under_repair());
  EXPECT_EQ(victim->files_quarantined(), 1u);
  std::vector<int> pending = cluster->PendingRepairNodes();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0], 0);

  // Every key still reads back correctly: the quarantined replica is
  // fenced, so the client fails over to healthy replicas (read-repair).
  for (int i = 0; i < kKeys; ++i) {
    auto r = client.Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
    ASSERT_EQ(r.ValueOrDie(), Value(i)) << Key(i);
  }
  // rf == nodes, so node 0 is a replica for every key and primary for some:
  // those primary reads were re-served by replicas.
  FaultRecoveryStats stats = cluster->GetFaultRecoveryStats();
  EXPECT_EQ(stats.corrupt_files_quarantined, 1u);
  EXPECT_GT(stats.read_repairs, 0u);

  // Ingest keeps working while the node is under repair (writes are not
  // fenced; only its reads are).
  for (int i = kKeys; i < kKeys + 100; ++i) {
    ASSERT_TRUE(client.Put(Key(i), Value(i)).ok());
  }

  // Repair: shard re-copy from healthy replicas heals the node and lifts
  // the read fence.
  ASSERT_TRUE(cluster->RunPendingRepairs().ok());
  EXPECT_FALSE(victim->under_repair());
  EXPECT_TRUE(cluster->PendingRepairNodes().empty());
  stats = cluster->GetFaultRecoveryStats();
  EXPECT_EQ(stats.corruption_repairs, 1u);
  EXPECT_GT(stats.recopied_kvps, 0u);

  // 3/3 replicas hold every key again: node 0 answers all of them locally,
  // and its store verifies clean.
  for (int i = 0; i < kKeys + 100; ++i) {
    auto r = victim->Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie(), Value(i)) << Key(i);
  }
  storage::ScrubReport healed;
  ASSERT_TRUE(victim->store()->VerifyIntegrity(&healed).ok());
  EXPECT_EQ(healed.corrupt_files, 0u);

  EXPECT_NE(cluster->Describe().find("integrity:"), std::string::npos);
}

// Same drill against the value log: bit-rot in a .vlog file a flush wrote
// must be detected by the scrub, quarantined, fenced, and healed by a shard
// re-copy exactly like a rotten SSTable.
TEST(CorruptionResilienceTest, VlogQuarantineReadRepairAndRecopy) {
  const int kKeys = 300;
  ClusterOptions options = CorruptibleClusterOptions(3);
  options.storage_options.min_value_size = 256;
  options.storage_options.vlog_file_size = 16 * 1024;
  auto cluster = Cluster::Start(options).MoveValueUnsafe();
  Client client(cluster.get());

  auto big_value = [](int i) {
    std::string v = Value(i) + ":";
    v.append(1000, 'p');  // the TPCx-IoT ~1 KB payload: separated
    return v;
  };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(client.Put(Key(i), big_value(i)).ok());
  }
  ASSERT_TRUE(cluster->FlushAll().ok());

  Node* victim = cluster->node(0);
  ASSERT_GT(victim->store()->GetStats().vlog_files, 1u);
  auto damaged = cluster->fault_env()->CorruptRandomFile(
      victim->data_dir(), storage::FileClass::kVlog, 32);
  ASSERT_TRUE(damaged.ok()) << damaged.status().ToString();

  storage::ScrubReport report;
  ASSERT_TRUE(victim->store()->VerifyIntegrity(&report).ok());
  ASSERT_EQ(report.quarantined_files, 1u);
  ASSERT_FALSE(report.corrupt_paths.empty());
  EXPECT_NE(report.corrupt_paths[0].find(".vlog"), std::string::npos);
  EXPECT_TRUE(victim->under_repair());
  std::vector<int> pending = cluster->PendingRepairNodes();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0], 0);

  // Reads fail over to healthy replicas while the victim is fenced.
  for (int i = 0; i < kKeys; ++i) {
    auto r = client.Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
    ASSERT_EQ(r.ValueOrDie(), big_value(i)) << Key(i);
  }
  FaultRecoveryStats stats = cluster->GetFaultRecoveryStats();
  EXPECT_EQ(stats.corrupt_files_quarantined, 1u);
  EXPECT_GT(stats.read_repairs, 0u);

  // Shard re-copy heals the replica; the re-copied values separate into
  // fresh vlog files at their flush, and the store verifies clean.
  ASSERT_TRUE(cluster->RunPendingRepairs().ok());
  EXPECT_FALSE(victim->under_repair());
  stats = cluster->GetFaultRecoveryStats();
  EXPECT_EQ(stats.corruption_repairs, 1u);
  EXPECT_GT(stats.recopied_kvps, 0u);

  for (int i = 0; i < kKeys; ++i) {
    auto r = victim->Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie(), big_value(i)) << Key(i);
  }
  storage::ScrubReport healed;
  ASSERT_TRUE(victim->store()->VerifyIntegrity(&healed).ok());
  EXPECT_EQ(healed.corrupt_files, 0u);
}

TEST(CorruptionResilienceTest, ScanFailsOverFromUnderRepairReplica) {
  ClusterOptions options = CorruptibleClusterOptions(3);
  options.shard_key_fn = SensorShardKey;
  auto cluster = Cluster::Start(options).MoveValueUnsafe();
  Client client(cluster.get());
  // One shard: the sensor prefix routes every row to one replica set.
  const std::string shard = "sensor-a";
  for (int i = 0; i < 50; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "%s#%04d", shard.c_str(), i);
    ASSERT_TRUE(client.Put(key, Value(i)).ok());
  }
  ASSERT_TRUE(cluster->FlushAll().ok());

  int primary = cluster->PrimaryNodeFor(shard + "#0000");
  Node* victim = cluster->node(primary);
  ASSERT_TRUE(cluster->fault_env()
                  ->CorruptRandomFile(victim->data_dir(),
                                      storage::FileClass::kSSTable, 16)
                  .ok());
  storage::ScrubReport report;
  ASSERT_TRUE(victim->store()->VerifyIntegrity(&report).ok());
  ASSERT_EQ(report.quarantined_files, 1u);

  std::vector<std::pair<std::string, std::string>> rows;
  VectorRowSink sink(&rows);
  ASSERT_TRUE(client.Scan(shard, shard + "#", shard + "$",
                          /*limit=*/0, &sink)
                  .ok());
  EXPECT_EQ(rows.size(), 50u);
  EXPECT_GT(cluster->GetFaultRecoveryStats().read_repairs, 0u);

  ASSERT_TRUE(cluster->RunPendingRepairs().ok());
  EXPECT_FALSE(victim->under_repair());
}

// A replica whose table rots mid-window hands the sink the rows before the
// bad block, then fails with Corruption. The failover must drop those rows,
// not append the next replica's full window after them.
TEST(CorruptionResilienceTest, ScanFailoverDropsPartialRowsOfCorruptReplica) {
  ClusterOptions options = CorruptibleClusterOptions(3);
  options.shard_key_fn = SensorShardKey;
  // Large enough that each replica flushes the shard into one table.
  options.storage_options.write_buffer_size = 4 << 20;
  auto cluster = Cluster::Start(options).MoveValueUnsafe();
  Client client(cluster.get());
  const std::string shard = "sensor-a";
  std::vector<std::pair<std::string, std::string>> batch;
  for (int i = 0; i < 200; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "%s#%04d", shard.c_str(), i);
    batch.emplace_back(key,
                       std::string(1000, static_cast<char>('a' + i % 26)));
  }
  ASSERT_TRUE(client.PutBatch(batch).ok());
  ASSERT_TRUE(cluster->FlushAll().ok());

  // Complement one byte in the middle of the primary's table: a data block
  // about halfway through the window fails its CRC.
  Node* victim = cluster->node(cluster->PrimaryNodeFor(batch[0].first));
  storage::Env* env = cluster->fault_env();
  const auto files = env->ListDir(victim->data_dir()).MoveValueUnsafe();
  std::string sst;
  for (const auto& f : files) {
    if (storage::ClassifyFile(f) == storage::FileClass::kSSTable) {
      ASSERT_TRUE(sst.empty()) << "expected one table";
      sst = victim->data_dir() + "/" + f;
    }
  }
  ASSERT_FALSE(sst.empty());
  std::string contents;
  ASSERT_TRUE(env->ReadFileToString(sst, &contents).ok());
  const size_t offset = contents.size() / 2;
  const char flipped = static_cast<char>(~contents[offset]);
  ASSERT_TRUE(env->OverwriteFileRange(sst, offset, Slice(&flipped, 1)).ok());

  std::vector<std::pair<std::string, std::string>> rows;
  VectorRowSink sink(&rows);
  ASSERT_TRUE(client.Scan(shard, shard + "#", shard + "$", /*limit=*/0,
                          &sink)
                  .ok());
  EXPECT_EQ(victim->files_quarantined(), 1u);
  ASSERT_EQ(rows.size(), batch.size());
  EXPECT_EQ(rows, batch);
  // Only the replica that answered counts the rows it handed over.
  uint64_t counted = 0;
  for (int i = 0; i < cluster->num_nodes(); ++i) {
    counted += cluster->node(i)->GetStats().scan_rows_read;
  }
  EXPECT_EQ(victim->GetStats().scan_rows_read, 0u);
  EXPECT_EQ(counted, batch.size());
}

TEST(CorruptionResilienceTest, RestartOfUnderRepairNodeForcesRecopy) {
  auto cluster =
      Cluster::Start(CorruptibleClusterOptions(3)).MoveValueUnsafe();
  Client client(cluster.get());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client.Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(cluster->FlushAll().ok());

  Node* victim = cluster->node(1);
  ASSERT_TRUE(cluster->fault_env()
                  ->CorruptRandomFile(victim->data_dir(),
                                      storage::FileClass::kSSTable, 16)
                  .ok());
  storage::ScrubReport report;
  ASSERT_TRUE(victim->store()->VerifyIntegrity(&report).ok());
  ASSERT_EQ(report.quarantined_files, 1u);
  ASSERT_TRUE(victim->under_repair());

  // The node bounces before RunPendingRepairs gets a chance: the restart
  // path must notice the pending repair and fall back to a full re-copy.
  victim->SetDown(true);
  ASSERT_TRUE(cluster->RestartNode(1).ok());
  EXPECT_FALSE(victim->under_repair());
  EXPECT_TRUE(cluster->PendingRepairNodes().empty());
  EXPECT_EQ(cluster->GetFaultRecoveryStats().corruption_repairs, 1u);

  for (int i = 0; i < 200; ++i) {
    auto r = victim->Get(Key(i));
    ASSERT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie(), Value(i));
  }
}

}  // namespace
}  // namespace cluster
}  // namespace iotdb
