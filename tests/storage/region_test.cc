// Region stores: a leader commits coordinator-numbered batches into a full
// LSM and ships each flush to its backups; a backup logs the same batches,
// indexes them only when read, and installs the leader's files.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/row_sink.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/kvstore.h"
#include "storage/log_reader.h"
#include "storage/log_writer.h"
#include "storage/region.h"
#include "storage/write_batch.h"

namespace iotdb {
namespace storage {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%05d", i);
  return buf;
}

std::string Value(int i) {
  // Large enough to be separated into vlog files at flush.
  return "value" + std::to_string(i) + std::string(400, 'v');
}

// Batch `b` of `n` kvps, numbered as a coordinator would: from 1 + b * n.
WriteBatch Batch(int b, int n) {
  WriteBatch batch;
  for (int i = b * n; i < (b + 1) * n; ++i) batch.Put(Key(i), Value(i));
  batch.SetSequence(1 + static_cast<SequenceNumber>(b) * n);
  return batch;
}

// Installs each leader version into the backup it is given.
class TestShipper final : public RegionShipper {
 public:
  uint64_t Ship(const RegionVersion& version) override {
    ships++;
    if (before_install) before_install(version);
    uint64_t bad_file = 0;
    last_status = backup->Install(version, /*full=*/false, &bad_file);
    return bad_file;
  }

  KVStore* backup = nullptr;
  std::function<void(const RegionVersion&)> before_install;
  Status last_status;
  int ships = 0;
};

std::vector<std::string> FilesWithSuffix(Env* env, const std::string& dir,
                                         const std::string& suffix) {
  std::vector<std::string> out;
  const std::vector<std::string> names = env->ListDir(dir).MoveValueUnsafe();
  for (const std::string& name : names) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      out.push_back(name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

class RegionStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.env = env_.get();
    options_.write_buffer_size = 1 << 20;
    options_.vlog_file_size = 64 * 1024;
  }

  std::unique_ptr<KVStore> Open(const std::string& dir, RegionRole role,
                                RegionShipper* shipper = nullptr) {
    auto store = KVStore::OpenRegion(options_, dir, role, shipper);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).MoveValueUnsafe();
  }

  // Commits batches [0, batches) into every store given, in `order`.
  void WriteAll(const std::vector<KVStore*>& stores,
                const std::vector<int>& order, int per_batch) {
    for (int b : order) {
      for (KVStore* store : stores) {
        WriteBatch batch = Batch(b, per_batch);
        ASSERT_TRUE(store->WriteAt(WriteOptions(), batch).ok());
      }
    }
  }

  void ExpectExact(KVStore* store, int keys) {
    for (int i = 0; i < keys; ++i) {
      auto r = store->Get(ReadOptions(), Key(i));
      ASSERT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
      ASSERT_EQ(r.ValueOrDie(), Value(i)) << Key(i);
    }
    EXPECT_TRUE(store->Get(ReadOptions(), Key(keys)).status().IsNotFound());
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(store->Scan(ReadOptions(), "", "", 0, &rows).ok());
    ASSERT_EQ(rows.size(), static_cast<size_t>(keys));
    for (int i = 0; i < keys; ++i) {
      EXPECT_EQ(rows[i].first, Key(i));
      EXPECT_EQ(rows[i].second, Value(i));
    }
  }

  // The two directories hold the same tables and vlog files, byte for
  // byte.
  void ExpectSameFiles(const std::string& a, const std::string& b) {
    for (const char* suffix : {".sst", ".vlog"}) {
      const std::vector<std::string> names =
          FilesWithSuffix(env_.get(), a, suffix);
      ASSERT_EQ(FilesWithSuffix(env_.get(), b, suffix), names) << suffix;
      for (const std::string& name : names) {
        std::string from_a;
        std::string from_b;
        ASSERT_TRUE(env_->ReadFileToString(a + "/" + name, &from_a).ok());
        ASSERT_TRUE(env_->ReadFileToString(b + "/" + name, &from_b).ok());
        EXPECT_TRUE(from_a == from_b) << name;
      }
    }
  }

  std::unique_ptr<Env> env_;
  Options options_;
};

TEST_F(RegionStoreTest, BackupIndexesNothingWhileItOnlyLogs) {
  auto backup = Open("/r/backup", RegionRole::kBackup);
  // Out of order, as a replica sees reordered deliveries.
  WriteAll({backup.get()}, {2, 0, 3, 1}, 25);
  KVStoreStats stats = backup->GetStats();
  EXPECT_EQ(stats.puts, 100u);
  EXPECT_EQ(stats.indexed_batches, 0u);
  EXPECT_EQ(stats.memtable_flushes, 0u);

  ExpectExact(backup.get(), 100);
  EXPECT_EQ(backup->GetStats().indexed_batches, 4u);

  // A later read indexes only what was logged since.
  WriteAll({backup.get()}, {5, 4}, 25);
  ExpectExact(backup.get(), 150);
  EXPECT_EQ(backup->GetStats().indexed_batches, 6u);

  // A backup runs no flush or compaction.
  EXPECT_TRUE(backup->FlushMemTable().ok());
  EXPECT_TRUE(backup->CompactAll().ok());
  stats = backup->GetStats();
  EXPECT_EQ(stats.memtable_flushes, 0u);
  EXPECT_EQ(stats.compactions, 0u);
}

TEST_F(RegionStoreTest, DuplicateBatchIsAppliedOnce) {
  auto leader = Open("/r/leader", RegionRole::kLeader);
  auto backup = Open("/r/backup", RegionRole::kBackup);
  WriteAll({leader.get(), backup.get()}, {0, 1, 0, 1, 1}, 10);
  for (KVStore* store : {leader.get(), backup.get()}) {
    EXPECT_EQ(store->GetStats().puts, 20u);
    std::vector<WriteBatch> logged;
    ASSERT_TRUE(store->LoggedBatches(&logged).ok());
    ASSERT_EQ(logged.size(), 2u);
    ExpectExact(store, 20);
  }
}

TEST_F(RegionStoreTest, LeaderAndBackupLogTheSameRecordBytes) {
  auto leader = Open("/r/leader", RegionRole::kLeader);
  auto backup = Open("/r/backup", RegionRole::kBackup);
  WriteAll({leader.get(), backup.get()}, {1, 0, 2}, 20);
  std::vector<WriteBatch> from_leader;
  std::vector<WriteBatch> from_backup;
  ASSERT_TRUE(leader->LoggedBatches(&from_leader).ok());
  ASSERT_TRUE(backup->LoggedBatches(&from_backup).ok());
  ASSERT_EQ(from_leader.size(), 3u);
  ASSERT_EQ(from_backup.size(), 3u);
  for (size_t i = 0; i < from_leader.size(); ++i) {
    EXPECT_EQ(from_leader[i].Contents().ToString(),
              from_backup[i].Contents().ToString());
  }
}

TEST_F(RegionStoreTest, FlushInstallsLeaderFilesAndTrimsBackupLog) {
  TestShipper shipper;
  auto leader = Open("/r/leader", RegionRole::kLeader, &shipper);
  auto backup = Open("/r/backup", RegionRole::kBackup);
  shipper.backup = backup.get();
  WriteAll({leader.get(), backup.get()}, {0, 2, 1, 3}, 50);
  // Batch 4 reaches the backup before the leader: the leader's flush
  // leaves it out, so its watermark stays below it.
  WriteAll({backup.get()}, {4}, 50);
  ExpectExact(backup.get(), 250);  // indexes the log tail
  const std::vector<std::string> logs_before =
      FilesWithSuffix(env_.get(), "/r/backup", ".log");
  ASSERT_EQ(logs_before.size(), 1u);

  ASSERT_TRUE(leader->FlushMemTable().ok());
  ASSERT_EQ(shipper.ships, 1);
  ASSERT_TRUE(shipper.last_status.ok()) << shipper.last_status.ToString();

  // The backup names the leader's table and vlog numbers.
  const std::vector<std::string> tables =
      FilesWithSuffix(env_.get(), "/r/leader", ".sst");
  const std::vector<std::string> vlogs =
      FilesWithSuffix(env_.get(), "/r/leader", ".vlog");
  ASSERT_EQ(tables.size(), 1u);
  ASSERT_GT(vlogs.size(), 1u);
  EXPECT_EQ(FilesWithSuffix(env_.get(), "/r/backup", ".sst"), tables);
  EXPECT_EQ(FilesWithSuffix(env_.get(), "/r/backup", ".vlog"), vlogs);
  EXPECT_TRUE(backup->IsLiveTableFile("/r/backup/" + tables[0]));
  for (const std::string& vlog : vlogs) {
    EXPECT_TRUE(backup->IsLiveVlogFile("/r/backup/" + vlog));
  }
  EXPECT_GT(backup->GetStats().install_bytes, 0u);

  // The log that holds batch 4, above the watermark, stays; the backup
  // logs on into a fresh one. Reads stay exact across the install.
  EXPECT_EQ(FilesWithSuffix(env_.get(), "/r/backup", ".log").size(), 2u);
  ExpectExact(backup.get(), 250);

  // Once the leader flushes batch 4 too, every logged batch lies at or
  // below the watermark: only the fresh, empty log is left.
  WriteAll({leader.get()}, {4}, 50);
  ASSERT_TRUE(leader->FlushMemTable().ok());
  ASSERT_TRUE(shipper.last_status.ok()) << shipper.last_status.ToString();
  const std::vector<std::string> logs_after =
      FilesWithSuffix(env_.get(), "/r/backup", ".log");
  ASSERT_EQ(logs_after.size(), 1u);
  EXPECT_NE(logs_after[0], logs_before[0]);
  std::vector<WriteBatch> logged;
  ASSERT_TRUE(backup->LoggedBatches(&logged).ok());
  EXPECT_TRUE(logged.empty());
  ExpectExact(backup.get(), 250);

  // Reads stay exact across later batches.
  WriteAll({leader.get(), backup.get()}, {5}, 50);
  ExpectExact(backup.get(), 300);
  ExpectExact(leader.get(), 300);

  // Reopened, the backup comes back from its manifest and log tail.
  backup.reset();
  backup = Open("/r/backup", RegionRole::kBackup);
  ExpectExact(backup.get(), 300);
  WriteAll({backup.get()}, {5, 0}, 50);  // both held: dropped
  EXPECT_EQ(backup->GetStats().puts, 0u);
  shipper.backup = backup.get();
  ASSERT_TRUE(leader->CompactAll().ok());
  ASSERT_TRUE(shipper.last_status.ok()) << shipper.last_status.ToString();
  ExpectExact(backup.get(), 300);
}

TEST_F(RegionStoreTest, LateBatchBelowAFlushedOneStaysReadable) {
  // The read rule with unique keys: a batch older than a flushed one lands
  // in the memtable, and Get and Scan still find every key.
  auto leader = Open("/r/leader", RegionRole::kLeader);
  WriteAll({leader.get()}, {1, 2}, 30);
  ASSERT_TRUE(leader->FlushMemTable().ok());
  WriteAll({leader.get()}, {0}, 30);
  ExpectExact(leader.get(), 90);
}

TEST_F(RegionStoreTest, InstallRefusesALeaderFileWithFlippedBits) {
  FaultInjectionEnv fault_env(env_.get(), /*seed=*/5);
  options_.env = &fault_env;
  TestShipper shipper;
  auto leader = Open("/r/leader", RegionRole::kLeader, &shipper);
  auto backup = Open("/r/backup", RegionRole::kBackup);
  shipper.backup = backup.get();
  std::string rotten;
  shipper.before_install = [&](const RegionVersion& version) {
    ASSERT_EQ(version.tables.size(), 1u);
    char name[32];
    snprintf(name, sizeof(name), "/%08llu.sst",
             static_cast<unsigned long long>(version.tables[0].number));
    rotten = version.dir + name;
    // One byte in the middle of the table: a data block that only a walk
    // of every block reads, not the edge blocks opening a table checks.
    std::string contents;
    ASSERT_TRUE(fault_env.ReadFileToString(rotten, &contents).ok());
    const size_t offset = contents.size() / 2;
    const char flipped = static_cast<char>(~contents[offset]);
    ASSERT_TRUE(
        fault_env.OverwriteFileRange(rotten, offset, Slice(&flipped, 1)).ok());
  };
  std::vector<int> order;
  for (int b = 0; b < 20; ++b) order.push_back(b);
  WriteAll({leader.get(), backup.get()}, order, 50);
  ASSERT_TRUE(leader->FlushMemTable().ok());

  EXPECT_TRUE(shipper.last_status.IsCorruption())
      << shipper.last_status.ToString();
  // Nothing was installed, and the backup kept its log.
  EXPECT_FALSE(backup->IsLiveTableFile("/r/backup" + rotten.substr(9)));
  EXPECT_EQ(backup->GetStats().num_files[0], 0);
  std::vector<WriteBatch> logged;
  ASSERT_TRUE(backup->LoggedBatches(&logged).ok());
  EXPECT_EQ(logged.size(), 20u);
  ExpectExact(backup.get(), 1000);
  // The leader quarantined its own copy, so the rot reaches no replica.
  EXPECT_FALSE(leader->IsLiveTableFile(rotten));
  EXPECT_EQ(leader->GetStats().quarantined_files, 1u);
}

TEST_F(RegionStoreTest, QuarantinedLeaderKeepsTheLogsItFlushes) {
  // A region copy repairs the leader, and its source may not hold yet the
  // batches the leader flushed after the quarantine: the leader keeps
  // their logs, so the copy can apply them again.
  FaultInjectionEnv fault_env(env_.get(), /*seed=*/9);
  options_.env = &fault_env;
  auto leader = Open("/r/leader", RegionRole::kLeader);
  WriteAll({leader.get()}, {0, 1}, 50);
  ASSERT_TRUE(leader->FlushMemTable().ok());
  const std::vector<std::string> tables =
      FilesWithSuffix(&fault_env, "/r/leader", ".sst");
  ASSERT_EQ(tables.size(), 1u);
  const std::string rotten = "/r/leader/" + tables[0];
  std::string contents;
  ASSERT_TRUE(fault_env.ReadFileToString(rotten, &contents).ok());
  const size_t offset = contents.size() / 2;
  const char flipped = static_cast<char>(~contents[offset]);
  ASSERT_TRUE(
      fault_env.OverwriteFileRange(rotten, offset, Slice(&flipped, 1)).ok());
  ScrubReport report;
  ASSERT_TRUE(leader->VerifyIntegrity(&report).ok());
  ASSERT_EQ(report.quarantined_files, 1u);

  WriteAll({leader.get()}, {2, 3}, 50);
  ASSERT_TRUE(leader->FlushMemTable().ok());
  WriteAll({leader.get()}, {4}, 50);
  ASSERT_TRUE(leader->FlushMemTable().ok());
  std::vector<WriteBatch> logged;
  ASSERT_TRUE(leader->LoggedBatches(&logged).ok());
  std::set<SequenceNumber> sequences;
  for (const WriteBatch& batch : logged) sequences.insert(batch.sequence());
  EXPECT_EQ(sequences, (std::set<SequenceNumber>{101, 151, 201}));

  // Reopened, it replays them without losing a row it still holds.
  leader.reset();
  leader = Open("/r/leader", RegionRole::kLeader);
  for (int i = 100; i < 250; ++i) {
    auto r = leader->Get(ReadOptions(), Key(i));
    ASSERT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie(), Value(i));
  }
}

TEST_F(RegionStoreTest, CheckpointCopyReopensInEitherRole) {
  TestShipper shipper;
  auto leader = Open("/r/leader", RegionRole::kLeader, &shipper);
  auto backup = Open("/r/backup", RegionRole::kBackup);
  shipper.backup = backup.get();
  WriteAll({leader.get(), backup.get()}, {0, 1}, 40);
  ASSERT_TRUE(leader->FlushMemTable().ok());
  WriteAll({leader.get(), backup.get()}, {2}, 40);

  uint64_t kvps = 0;
  ASSERT_TRUE(backup->CopyTo("/r/as_leader", &kvps).ok());
  EXPECT_EQ(kvps, 120u);
  ASSERT_TRUE(leader->CopyTo("/r/as_backup", &kvps).ok());
  EXPECT_EQ(kvps, 120u);
  auto copied_leader = Open("/r/as_leader", RegionRole::kLeader);
  auto copied_backup = Open("/r/as_backup", RegionRole::kBackup);
  ExpectExact(copied_leader.get(), 120);
  ExpectExact(copied_backup.get(), 120);
}

TEST_F(RegionStoreTest, RegionsOpenedWithAnotherLeadersFilesResync) {
  // l1 ships to b2 alone; b1 logs every batch and installs nothing, as a
  // backup that missed every install.
  TestShipper shipper;
  auto l1 = Open("/r/l1", RegionRole::kLeader, &shipper);
  auto b1 = Open("/r/b1", RegionRole::kBackup);
  auto b2 = Open("/r/b2", RegionRole::kBackup);
  shipper.backup = b2.get();
  for (int b = 0; b < 3; ++b) {
    WriteAll({l1.get(), b1.get(), b2.get()}, {b}, 50);
    ASSERT_TRUE(l1->FlushMemTable().ok());
    ASSERT_TRUE(shipper.last_status.ok()) << shipper.last_status.ToString();
  }
  uint64_t kvps = 0;
  ASSERT_TRUE(b2->CopyTo("/r/b3", &kvps).ok());  // l1's files, for later

  // l1 is lost and l2 is a copy of b1: its files reuse numbers b2 holds
  // with l1's contents. Its first ship names every file it holds.
  l1.reset();
  ASSERT_TRUE(b1->CopyTo("/r/l2", &kvps).ok());
  auto l2 = Open("/r/l2", RegionRole::kLeader, &shipper);
  WriteAll({l2.get(), b2.get()}, {3}, 50);
  ASSERT_TRUE(l2->FlushMemTable().ok());
  ASSERT_TRUE(shipper.last_status.ok()) << shipper.last_status.ToString();
  ExpectSameFiles("/r/l2", "/r/b2");
  ExpectExact(b2.get(), 200);

  // b3 opens holding l1's files: it copies the whole version on its first
  // install, though l2's ship adds only its newest files.
  auto b3 = Open("/r/b3", RegionRole::kBackup);
  shipper.backup = b3.get();
  WriteAll({l2.get(), b3.get()}, {3, 4}, 50);
  ASSERT_TRUE(l2->FlushMemTable().ok());
  ASSERT_TRUE(shipper.last_status.ok()) << shipper.last_status.ToString();
  ExpectSameFiles("/r/l2", "/r/b3");
  ExpectExact(b3.get(), 250);
}

TEST_F(RegionStoreTest, CompactionUnlinksOverwrittenFilesOnEveryBackup) {
  // Round r puts keys [0, 100) at sequences from 1 + 100 r, so round 1
  // overwrites every key round 0 wrote.
  auto round = [](int r) {
    WriteBatch batch;
    for (int i = 0; i < 100; ++i) {
      batch.Put(Key(i), std::to_string(r) + Value(i));
    }
    batch.SetSequence(1 + static_cast<SequenceNumber>(r) * 100);
    return batch;
  };
  TestShipper shipper;
  auto leader = Open("/r/leader", RegionRole::kLeader, &shipper);
  auto b1 = Open("/r/b1", RegionRole::kBackup);
  auto b2 = Open("/r/b2", RegionRole::kBackup);
  shipper.backup = b1.get();
  Status b2_status;
  shipper.before_install = [&](const RegionVersion& version) {
    uint64_t bad_file = 0;
    b2_status = b2->Install(version, /*full=*/false, &bad_file);
  };
  auto write = [&](int r) {
    const WriteBatch batch = round(r);
    for (KVStore* store : {leader.get(), b1.get(), b2.get()}) {
      ASSERT_TRUE(store->WriteAt(WriteOptions(), batch).ok());
    }
  };
  auto installed = [&] {
    EXPECT_TRUE(shipper.last_status.ok()) << shipper.last_status.ToString();
    EXPECT_TRUE(b2_status.ok()) << b2_status.ToString();
  };

  write(0);
  ASSERT_TRUE(leader->FlushMemTable().ok());
  installed();
  const std::vector<std::string> round0 =
      FilesWithSuffix(env_.get(), "/r/leader", ".vlog");
  ASSERT_FALSE(round0.empty());
  // Reads round 0, from b1's installed files, across every install below.
  auto iter = b1->NewIterator(ReadOptions());

  write(1);
  ASSERT_TRUE(leader->FlushMemTable().ok());
  installed();
  ASSERT_TRUE(leader->CompactAll().ok());  // drops every round-0 entry
  installed();
  const std::vector<std::string> round1 =
      FilesWithSuffix(env_.get(), "/r/leader", ".vlog");
  for (const std::string& name : round0) {
    EXPECT_FALSE(leader->IsLiveVlogFile("/r/leader/" + name)) << name;
    EXPECT_FALSE(b1->IsLiveVlogFile("/r/b1/" + name)) << name;
    EXPECT_FALSE(b2->IsLiveVlogFile("/r/b2/" + name)) << name;
    EXPECT_TRUE(env_->FileExists("/r/b1/" + name)) << name;  // iter's
    EXPECT_EQ(std::count(round1.begin(), round1.end(), name), 0) << name;
  }
  EXPECT_EQ(FilesWithSuffix(env_.get(), "/r/b2", ".vlog"), round1);

  int rows = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++rows) {
    ASSERT_EQ(iter->key().ToString(), Key(rows));
    ASSERT_EQ(iter->value().ToString(), "0" + Value(rows));
  }
  EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
  EXPECT_EQ(rows, 100);
  iter.reset();
  EXPECT_EQ(FilesWithSuffix(env_.get(), "/r/b1", ".vlog"), round1);

  for (KVStore* store : {leader.get(), b1.get(), b2.get()}) {
    for (int i = 0; i < 100; ++i) {
      auto r = store->Get(ReadOptions(), Key(i));
      ASSERT_TRUE(r.ok()) << Key(i) << ": " << r.status().ToString();
      EXPECT_EQ(r.ValueOrDie(), "1" + Value(i));
    }
  }
}

TEST_F(RegionStoreTest, RegionsNeverNumberTheirOwnWrites) {
  auto leader = Open("/r/leader", RegionRole::kLeader);
  auto backup = Open("/r/backup", RegionRole::kBackup);
  for (KVStore* store : {leader.get(), backup.get()}) {
    // A plain Put would take a sequence the coordinator hands out.
    EXPECT_TRUE(store->Put(WriteOptions(), "k", "v").IsNotSupported());
  }
  auto plain = KVStore::Open(options_, "/r/plain").MoveValueUnsafe();
  WriteBatch batch = Batch(0, 1);
  EXPECT_TRUE(plain->WriteAt(WriteOptions(), batch).IsNotSupported());
}

TEST(LogReaderResumeTest, ResumesAtTheLastRecordEnd) {
  auto env = NewMemEnv();
  auto file = env->NewWritableFile("/log").MoveValueUnsafe();
  log::Writer writer(file.get());
  // Records of every size class: inside a block, spanning blocks, and
  // ending within a header's length of a block end.
  std::vector<std::string> records;
  for (int i = 0; i < 40; ++i) {
    records.push_back(std::string(1 + (i * 7919) % 50000, 'a' + i % 26));
    ASSERT_TRUE(writer.AddRecord(records.back()).ok());
  }
  uint64_t offset = 0;
  size_t next = 0;
  // Read a few records at a time, each reader starting where the last
  // stopped.
  while (next < records.size()) {
    auto in = env->NewSequentialFile("/log").MoveValueUnsafe();
    ASSERT_TRUE(in->Skip(offset).ok());
    log::Reader reader(in.get(), nullptr, /*checksum=*/true, "/log", offset);
    Slice record;
    std::string scratch;
    for (int k = 0; k < 3 && reader.ReadRecord(&record, &scratch); ++k) {
      ASSERT_LT(next, records.size());
      EXPECT_EQ(record.ToString(), records[next]) << "record " << next;
      next++;
    }
    offset = reader.LastRecordEnd();
  }
  EXPECT_EQ(next, records.size());
}

}  // namespace
}  // namespace storage
}  // namespace iotdb
