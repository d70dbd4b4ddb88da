#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/kvstore.h"

namespace iotdb {
namespace storage {
namespace {

// A vlog file lives while a live table links it: once compaction drops
// every pointer entry into it, the store deletes it, behind the reader pins.
class VlogGcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.env = env_.get();
    options_.write_buffer_size = 64 * 1024;
    options_.min_value_size = 64;
    options_.vlog_file_size = 8 * 1024;  // small: many vlog files per flush
    Open();
  }

  void Open(const std::string& dir = "/db") {
    auto result = KVStore::Open(options_, dir);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    store_ = std::move(result).MoveValueUnsafe();
  }

  static std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  static std::string Value(int i, int version) {
    std::string v = "v" + std::to_string(version) + ":" + Key(i) + ":";
    v.append(180, static_cast<char>('a' + version));
    return v;
  }

  std::string Get(const std::string& key) {
    auto r = store_->Get(ReadOptions(), key);
    return r.ok() ? r.ValueOrDie() : "NOT_FOUND";
  }

  // Writes keys [0, n) at `version`, then flushes.
  void WriteRound(int n, int version) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(
          store_->Put(WriteOptions(), Key(i), Value(i, version)).ok());
    }
    ASSERT_TRUE(store_->FlushMemTable().ok());
  }

  std::vector<std::string> VlogFilesOnDisk(const std::string& dir = "/db") {
    auto listing = env_->ListDir(dir);
    EXPECT_TRUE(listing.ok());
    std::vector<std::string> paths;
    for (const auto& name : listing.ValueOrDie()) {
      if (name.ends_with(".vlog")) paths.push_back(dir + "/" + name);
    }
    std::sort(paths.begin(), paths.end());
    return paths;
  }

  bool OnDisk(const std::string& path) { return env_->FileExists(path); }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<KVStore> store_;
};

// Every round-1 key is overwritten or deleted: after CompactAll no table
// links a round-1 file, so each is gone from the live set and from disk,
// while every value reads back, also after a reopen.
TEST_F(VlogGcTest, ReclaimsDeadBytesAndKeepsSurvivorsReadable) {
  const int kN = 400;
  WriteRound(kN, 1);
  const std::vector<std::string> round1 = VlogFilesOnDisk();
  const uint64_t round1_bytes = store_->GetStats().vlog_appended_bytes;
  ASSERT_GT(round1.size(), 2u);

  // Even keys get a second version, odd keys a tombstone.
  for (int i = 0; i < kN; ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), Value(i, 2)).ok());
    } else {
      ASSERT_TRUE(store_->Delete(WriteOptions(), Key(i)).ok());
    }
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  ASSERT_TRUE(store_->CompactAll().ok());

  auto check = [&] {
    const KVStoreStats stats = store_->GetStats();
    std::vector<std::string> on_disk = VlogFilesOnDisk();
    EXPECT_EQ(stats.vlog_files, on_disk.size());
    EXPECT_EQ(stats.vlog_bytes + round1_bytes, stats.vlog_appended_bytes);
    for (const std::string& path : round1) {
      EXPECT_FALSE(store_->IsLiveVlogFile(path)) << path;
      EXPECT_FALSE(OnDisk(path)) << path;
    }
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(Get(Key(i)), i % 2 == 0 ? Value(i, 2) : "NOT_FOUND") << Key(i);
    }
  };
  check();
  ASSERT_GT(store_->GetStats().vlog_files, 0u);  // round 2's, still linked

  store_.reset();
  Open();
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(Get(Key(i)), i % 2 == 0 ? Value(i, 2) : "NOT_FOUND") << Key(i);
  }
  for (const std::string& path : round1) EXPECT_FALSE(OnDisk(path)) << path;
}

// A compaction unlinks the round-1 files while an iterator that reads them
// is open: they leave the live set at once and the disk when it closes.
TEST_F(VlogGcTest, PhysicalDeletionDeferredWhileIteratorOpen) {
  const int kN = 200;
  WriteRound(kN, 1);
  const std::vector<std::string> round1 = VlogFilesOnDisk();
  ASSERT_FALSE(round1.empty());
  auto iter = store_->NewIterator(ReadOptions());  // reads round 1

  WriteRound(kN, 2);
  ASSERT_TRUE(store_->CompactAll().ok());
  for (const std::string& path : round1) {
    EXPECT_FALSE(store_->IsLiveVlogFile(path)) << path;
    EXPECT_TRUE(OnDisk(path)) << path;
  }

  int rows = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++rows) {
    EXPECT_EQ(iter->value().ToString(), Value(rows, 1));
  }
  EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
  EXPECT_EQ(rows, kN);

  iter.reset();  // last reader gone -> deferred deletions run
  for (const std::string& path : round1) EXPECT_FALSE(OnDisk(path)) << path;
}

// An open snapshot defers the deletion of files a compaction unlinked.
TEST_F(VlogGcTest, PhysicalDeletionDeferredWhileSnapshotOpen) {
  const int kN = 200;
  WriteRound(kN, 1);
  const std::vector<std::string> round1 = VlogFilesOnDisk();
  WriteRound(kN, 2);

  // Taken after round 2, so compaction still drops every round-1 entry.
  SequenceNumber snapshot = store_->GetSnapshot();
  ASSERT_TRUE(store_->CompactAll().ok());
  for (const std::string& path : round1) {
    EXPECT_FALSE(store_->IsLiveVlogFile(path)) << path;
    EXPECT_TRUE(OnDisk(path)) << path;
  }

  store_->ReleaseSnapshot(snapshot);
  for (const std::string& path : round1) EXPECT_FALSE(OnDisk(path)) << path;
}

// The background compaction alone frees a wholly dead file: no call does.
TEST_F(VlogGcTest, BackgroundGcTriggersAfterCompaction) {
  options_.l0_compaction_trigger = 2;
  store_.reset();
  ASSERT_TRUE(KVStore::Destroy(options_, "/db").ok());
  Open();

  const int kN = 150;  // a round fits one memtable: one L0 table each
  WriteRound(kN, 1);
  const std::vector<std::string> round1 = VlogFilesOnDisk();
  ASSERT_FALSE(round1.empty());
  WriteRound(kN, 2);  // the second L0 table schedules the compaction
  store_->WaitForBackgroundWork();

  EXPECT_GT(store_->GetStats().compactions, 0u);
  for (const std::string& path : round1) EXPECT_FALSE(OnDisk(path)) << path;
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(Get(Key(i)), Value(i, 2)) << Key(i);
  }
}

// Readers dereference vlog files while flushes install new ones and
// compactions (background and CompactAll) unlink old ones and defer their
// deletion: every Get and Scan still returns its key's value.
TEST_F(VlogGcTest, ReadersRaceFlushesAndGc) {
  const int kKeys = 200;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), Value(i, 0)).ok());
  }
  // Some version of key i's value: "v<version>:<key>:" plus 180 bytes.
  auto matches = [](int i, const Slice& value) {
    const std::string v = value.ToString();
    const size_t at = v.find(":" + Key(i) + ":");
    return v[0] == 'v' && at != std::string::npos &&
           v.size() == at + Key(i).size() + 2 + 180;
  };

  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::string first_error;
  std::mutex error_mu;
  auto fail = [&](const std::string& what) {
    if (bad.fetch_add(1) == 0) {
      std::lock_guard<std::mutex> lock(error_mu);
      first_error = what;
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      uint32_t x = 17 + t;
      while (!done.load()) {
        x = x * 1103515245 + 12345;
        const int i = static_cast<int>((x >> 8) % kKeys);
        auto r = store_->Get(ReadOptions(), Key(i));
        if (!r.ok() || !matches(i, r.ValueOrDie())) {
          fail("Get " + Key(i) + ": " + r.status().ToString());
        }
        const int first = i % (kKeys - 20);
        std::vector<std::pair<std::string, std::string>> rows;
        Status s = store_->Scan(ReadOptions(), Key(first), Key(first + 20), 0,
                                &rows);
        if (!s.ok() || rows.size() != 20) {
          fail("Scan " + Key(first) + ": " + s.ToString());
          continue;
        }
        for (int k = 0; k < 20; ++k) {
          if (rows[k].first != Key(first + k) ||
              !matches(first + k, rows[k].second)) {
            fail("Scan row " + rows[k].first);
          }
        }
      }
    });
  }
  for (int round = 1; round <= 12; ++round) {
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), Value(i, round)).ok());
    }
    if (round % 4 == 0) {
      ASSERT_TRUE(store_->CompactAll().ok());
    }
  }
  done.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(bad.load(), 0) << first_error;
  const KVStoreStats stats = store_->GetStats();
  EXPECT_LT(stats.vlog_bytes, stats.vlog_appended_bytes);
  EXPECT_EQ(stats.vlog_files, VlogFilesOnDisk().size());
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(Get(Key(i)), Value(i, 12)) << Key(i);
  }
}

// A crash after a compaction's manifest write, before its deletions: the
// store reopened from that disk deletes the files no table links and
// reads every row.
TEST_F(VlogGcTest, ReopenDeletesFilesUnlinkedBeforeACrash) {
  const int kN = 200;
  WriteRound(kN, 1);
  const std::vector<std::string> round1 = VlogFilesOnDisk();
  WriteRound(kN, 2);
  {
    auto iter = store_->NewIterator(ReadOptions());  // defers the deletion
    ASSERT_TRUE(store_->CompactAll().ok());
    // The disk at the crash: the new manifest, and the round-1 files.
    auto names = env_->ListDir("/db");
    ASSERT_TRUE(names.ok());
    ASSERT_TRUE(env_->CreateDir("/crash").ok());
    for (const std::string& name : names.ValueOrDie()) {
      std::string contents;
      ASSERT_TRUE(env_->ReadFileToString("/db/" + name, &contents).ok());
      ASSERT_TRUE(env_->WriteStringToFile("/crash/" + name, contents).ok());
    }
  }
  store_.reset();
  Open("/crash");
  for (const std::string& path : round1) {
    const std::string copy = "/crash" + path.substr(3);
    EXPECT_FALSE(OnDisk(copy)) << copy;
  }
  EXPECT_EQ(store_->GetStats().vlog_files, VlogFilesOnDisk("/crash").size());
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(Get(Key(i)), Value(i, 2)) << Key(i);
  }
}

// Each table's links are in the manifest: a reopened store and a CopyTo
// copy keep every file the tables link, and a compaction in either still
// frees exactly the files of the shadowed round.
TEST_F(VlogGcTest, LinksSurviveReopenAndCopy) {
  const int kN = 200;
  WriteRound(kN, 1);
  const std::vector<std::string> round1 = VlogFilesOnDisk();
  WriteRound(kN, 2);
  const std::vector<std::string> all = VlogFilesOnDisk();
  ASSERT_GT(all.size(), round1.size());

  store_.reset();
  Open();
  uint64_t kvps = 0;
  ASSERT_TRUE(store_->CopyTo("/copy", &kvps).ok());
  for (const std::string dir : {"/db", "/copy"}) {
    SCOPED_TRACE(dir);
    store_.reset();
    Open(dir);
    EXPECT_EQ(store_->GetStats().vlog_files, all.size());
    ASSERT_TRUE(store_->CompactAll().ok());
    for (const std::string& path : all) {
      const bool in_round1 =
          std::find(round1.begin(), round1.end(), path) != round1.end();
      const std::string here = dir + path.substr(3);
      EXPECT_EQ(OnDisk(here), !in_round1) << here;
      EXPECT_EQ(store_->IsLiveVlogFile(here), !in_round1) << here;
    }
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(Get(Key(i)), Value(i, 2)) << Key(i);
    }
  }
}

// ---------------------------------------------------------------------------
// Scrub integration: corruption in vlog files is detected by the integrity
// walk, counted under the scrub byte metric, and quarantined.

class VlogScrubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_env_ = NewMemEnv();
    fenv_ = std::make_unique<FaultInjectionEnv>(base_env_.get(), 77);
    options_.env = fenv_.get();
    options_.write_buffer_size = 64 * 1024;
    options_.min_value_size = 64;
    options_.vlog_file_size = 8 * 1024;
    auto result = KVStore::Open(options_, "/db");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    store_ = std::move(result).MoveValueUnsafe();
  }

  static std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  std::unique_ptr<Env> base_env_;
  std::unique_ptr<FaultInjectionEnv> fenv_;
  Options options_;
  std::unique_ptr<KVStore> store_;
};

TEST_F(VlogScrubTest, VerifyIntegrityQuarantinesCorruptVlogFile) {
  const int kN = 300;
  const std::string value(200, 'v');
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), value).ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  ASSERT_GT(store_->GetStats().vlog_files, 2u);

  obs::Counter* scrub_bytes = obs::MetricsRegistry::Global().GetCounter(
      "storage.scrub.bytes_checked");
  const uint64_t scrub_bytes_before = scrub_bytes->Value();

  auto victim = fenv_->CorruptRandomFile("/db", FileClass::kVlog, 64);
  ASSERT_TRUE(victim.ok()) << victim.status().ToString();
  const std::string victim_path = victim.ValueOrDie();
  EXPECT_TRUE(store_->IsLiveVlogFile(victim_path));

  ScrubReport report;
  ASSERT_TRUE(store_->VerifyIntegrity(&report).ok());
  EXPECT_GE(report.corrupt_files, 1u);
  EXPECT_GE(report.quarantined_files, 1u);
  ASSERT_FALSE(report.corrupt_paths.empty());
  EXPECT_NE(report.corrupt_paths[0].find(".vlog"), std::string::npos);

  // Satellite: vlog checksum-walk bytes are part of the scrub byte budget.
  EXPECT_GT(scrub_bytes->Value() - scrub_bytes_before, 0u);

  // The quarantined file left the live set and its keys no longer resolve,
  // while keys in other vlog files still do.
  EXPECT_FALSE(store_->IsLiveVlogFile(victim_path));
  int unreadable = 0, readable = 0;
  for (int i = 0; i < kN; ++i) {
    auto r = store_->Get(ReadOptions(), Key(i));
    if (r.ok()) {
      EXPECT_EQ(r.ValueOrDie(), value);
      ++readable;
    } else {
      ++unreadable;
    }
  }
  EXPECT_GT(unreadable, 0);
  EXPECT_GT(readable, 0);

  // A second pass finds nothing new.
  ScrubReport second;
  ASSERT_TRUE(store_->VerifyIntegrity(&second).ok());
  EXPECT_EQ(second.corrupt_files, 0u);
  EXPECT_EQ(second.quarantined_files, 0u);
  EXPECT_EQ(store_->GetStats().quarantined_files, 1u);
}

TEST_F(VlogScrubTest, DereferenceOfCorruptRecordQuarantinesFile) {
  const std::string value(200, 'v');
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), value).ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());

  auto victim = fenv_->CorruptRandomFile("/db", FileClass::kVlog, 64);
  ASSERT_TRUE(victim.ok());

  // Reads hit the damage before any scrub runs: the deref fails closed and
  // the file is quarantined so it never serves another read.
  int failures = 0;
  for (int i = 0; i < 40; ++i) {
    auto r = store_->Get(ReadOptions(), Key(i));
    if (!r.ok()) ++failures;
  }
  EXPECT_GT(failures, 0);
  EXPECT_FALSE(store_->IsLiveVlogFile(victim.ValueOrDie()));
  EXPECT_GE(store_->GetStats().quarantined_files, 1u);
}

}  // namespace
}  // namespace storage
}  // namespace iotdb
