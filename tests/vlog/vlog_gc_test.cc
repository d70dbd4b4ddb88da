#include <gtest/gtest.h>

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

class VlogGcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.env = env_.get();
    options_.write_buffer_size = 64 * 1024;
    options_.min_value_size = 64;
    options_.vlog_file_size = 8 * 1024;  // small: many vlog files per flush
    options_.background_vlog_gc = false;  // tests drive GC explicitly
    Open();
  }

  void Open() {
    auto result = KVStore::Open(options_, "/db");
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

  uint64_t CountVlogFilesOnDisk() {
    auto listing = env_->ListDir("/db");
    EXPECT_TRUE(listing.ok());
    uint64_t n = 0;
    for (const auto& name : listing.ValueOrDie()) {
      if (name.size() > 5 &&
          name.compare(name.size() - 5, 5, ".vlog") == 0) {
        ++n;
      }
    }
    return n;
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<KVStore> store_;
};

// Satellite requirement: overwrite/delete 90% of keys, run GC, and assert
// the reclaimed-byte counter and that every survivor stays readable.
TEST_F(VlogGcTest, ReclaimsDeadBytesAndKeepsSurvivorsReadable) {
  const int kN = 400;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  const uint64_t round1_bytes = store_->GetStats().vlog_appended_bytes;
  ASSERT_GT(round1_bytes, 0u);

  // Kill 90% of round 1: keys % 10 == 0 survive, half of the dead are
  // overwritten, half deleted.
  for (int i = 0; i < kN; ++i) {
    if (i % 10 == 0) continue;
    if (i % 2 == 0) {
      ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), Value(i, 2)).ok());
    } else {
      ASSERT_TRUE(store_->Delete(WriteOptions(), Key(i)).ok());
    }
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  ASSERT_TRUE(store_->CompactAll().ok());

  obs::Counter* gc_reclaimed_metric =
      obs::MetricsRegistry::Global().GetCounter(
          "storage.vlog.gc_reclaimed_bytes");
  const uint64_t metric_before = gc_reclaimed_metric->Value();

  uint64_t reclaimed = 0;
  ASSERT_TRUE(store_->GarbageCollect(0, &reclaimed).ok());

  // About 90% of round 1 is dead; the round-2 files are all live, so GC
  // re-puts their records and reclaims nothing from them.
  EXPECT_GE(reclaimed, round1_bytes * 8 / 10)
      << "round1_bytes=" << round1_bytes;
  auto stats = store_->GetStats();
  EXPECT_GE(stats.vlog_gc_reclaimed_bytes, reclaimed);
  EXPECT_GE(gc_reclaimed_metric->Value() - metric_before, reclaimed);

  for (int i = 0; i < kN; ++i) {
    if (i % 10 == 0) {
      ASSERT_EQ(Get(Key(i)), Value(i, 1)) << Key(i);
    } else if (i % 2 == 0) {
      ASSERT_EQ(Get(Key(i)), Value(i, 2)) << Key(i);
    } else {
      ASSERT_EQ(Get(Key(i)), "NOT_FOUND") << Key(i);
    }
  }

  // GC is durable: survivors still resolve after a reopen.
  store_.reset();
  Open();
  for (int i = 0; i < kN; i += 10) {
    ASSERT_EQ(Get(Key(i)), Value(i, 1)) << Key(i);
  }
}

// min_value_size = SIZE_MAX keeps every value inline: no vlog file, so
// nothing for GC to do.
TEST_F(VlogGcTest, GcIsNoOpWithoutValueSeparation) {
  Options plain;
  plain.env = env_.get();
  plain.min_value_size = SIZE_MAX;
  auto result = KVStore::Open(plain, "/plain");
  ASSERT_TRUE(result.ok());
  auto store = std::move(result).MoveValueUnsafe();
  ASSERT_TRUE(store->Put(WriteOptions(), "k", std::string(500, 'v')).ok());
  ASSERT_TRUE(store->FlushMemTable().ok());
  EXPECT_EQ(store->GetStats().vlog_files, 0u);
  uint64_t reclaimed = 123;
  ASSERT_TRUE(store->GarbageCollect(0, &reclaimed).ok());
  EXPECT_EQ(reclaimed, 0u);
  EXPECT_EQ(store->Get(ReadOptions(), "k").ValueOrDie(),
            std::string(500, 'v'));
}

TEST_F(VlogGcTest, ChunkedGcProcessesTailIncrementally) {
  const int kN = 300;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
  }
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), Value(i, 2)).ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());

  // A 1-byte chunk processes exactly one tail file per call: its live
  // records go back to the memtable as full values, not to a vlog file.
  const uint64_t files_before = store_->GetStats().vlog_files;
  ASSERT_GT(files_before, 2u);
  uint64_t reclaimed = 0;
  ASSERT_TRUE(store_->GarbageCollect(1, &reclaimed).ok());
  EXPECT_EQ(store_->GetStats().vlog_files, files_before - 1);

  // Draining the whole tail leaves no vlog file until the next flush
  // separates the re-put values again.
  ASSERT_TRUE(store_->GarbageCollect(0, &reclaimed).ok());
  EXPECT_EQ(store_->GetStats().vlog_files, 0u);
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(Get(Key(i)), Value(i, 2)) << Key(i);
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  EXPECT_GT(store_->GetStats().vlog_files, 0u);
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(Get(Key(i)), Value(i, 2)) << Key(i);
  }
}

TEST_F(VlogGcTest, PhysicalDeletionDeferredWhileIteratorOpen) {
  const int kN = 200;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
  }
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), Value(i, 2)).ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());

  auto iter = store_->NewIterator(ReadOptions());
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());

  const uint64_t on_disk_before = CountVlogFilesOnDisk();
  uint64_t reclaimed = 0;
  ASSERT_TRUE(store_->GarbageCollect(0, &reclaimed).ok());
  ASSERT_GT(reclaimed, 0u);

  // Logically reclaimed, physically still present: the open iterator may
  // hold pointers into the old files.
  EXPECT_GE(CountVlogFilesOnDisk(), on_disk_before);

  // The iterator still materializes every value it sees.
  int rows = 0;
  for (; iter->Valid(); iter->Next(), ++rows) {
    EXPECT_EQ(iter->value().size(), Value(0, 2).size());
  }
  EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
  EXPECT_EQ(rows, kN);

  iter.reset();  // last reader gone -> deferred deletions run
  EXPECT_LT(CountVlogFilesOnDisk(), on_disk_before);
}

TEST_F(VlogGcTest, PhysicalDeletionDeferredWhileSnapshotOpen) {
  const int kN = 200;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
  }
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), Value(i, 2)).ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());

  SequenceNumber snapshot = store_->GetSnapshot();
  const uint64_t on_disk_before = CountVlogFilesOnDisk();
  uint64_t reclaimed = 0;
  ASSERT_TRUE(store_->GarbageCollect(0, &reclaimed).ok());
  ASSERT_GT(reclaimed, 0u);
  EXPECT_GE(CountVlogFilesOnDisk(), on_disk_before);

  store_->ReleaseSnapshot(snapshot);
  EXPECT_LT(CountVlogFilesOnDisk(), on_disk_before);
}

// Background pacing: with background_vlog_gc on, compaction's dead-byte
// accounting alone must eventually trigger GC of a fully-dead tail, with no
// explicit GarbageCollect call.
TEST_F(VlogGcTest, BackgroundGcTriggersAfterCompaction) {
  options_.background_vlog_gc = true;
  options_.vlog_gc_dead_ratio = 0.3;
  store_.reset();
  ASSERT_TRUE(KVStore::Destroy(options_, "/db").ok());
  Open();

  const int kN = 300;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), Value(i, 2)).ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  // Compaction drops the shadowed round-1 pointers and credits their vlog
  // files with dead bytes, making the tail eligible.
  ASSERT_TRUE(store_->CompactAll().ok());
  store_->WaitForBackgroundWork();

  auto stats = store_->GetStats();
  EXPECT_GT(stats.vlog_gc_reclaimed_bytes, 0u)
      << "background GC never ran on a fully-dead tail";
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(Get(Key(i)), Value(i, 2)) << Key(i);
  }
}

// Readers dereference vlog files while flushes install new ones, compaction
// credits dead bytes, and GC (explicit and background) retires files and
// defers their deletion: every Get and Scan still returns its key's value.
TEST_F(VlogGcTest, ReadersRaceFlushesAndGc) {
  options_.background_vlog_gc = true;
  options_.vlog_gc_dead_ratio = 0.3;
  store_.reset();
  ASSERT_TRUE(KVStore::Destroy(options_, "/db").ok());
  Open();

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
      uint64_t reclaimed = 0;
      ASSERT_TRUE(store_->GarbageCollect(0, &reclaimed).ok());
    }
  }
  done.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(bad.load(), 0) << first_error;
  EXPECT_GT(store_->GetStats().vlog_gc_reclaimed_bytes, 0u);
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(Get(Key(i)), Value(i, 12)) << Key(i);
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
    options_.background_vlog_gc = false;
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

TEST_F(VlogScrubTest, GcQuarantinesCorruptTailInsteadOfDeleting) {
  const std::string value(200, 'v');
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), value).ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  ASSERT_GT(store_->GetStats().vlog_files, 2u);

  auto victim = fenv_->CorruptRandomFile("/db", FileClass::kVlog, 64);
  ASSERT_TRUE(victim.ok());

  // GC scans every vlog file from the tail; hitting the corrupt one must
  // quarantine it (preserving the evidence) rather than resurrect garbage
  // or delete it as "collected".
  uint64_t reclaimed = 0;
  Status s = store_->GarbageCollect(0, &reclaimed);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_FALSE(store_->IsLiveVlogFile(victim.ValueOrDie()));
  EXPECT_EQ(store_->GetStats().quarantined_files, 1u);
  auto listing = base_env_->ListDir("/db");
  ASSERT_TRUE(listing.ok());
  bool kept = false;
  for (const auto& name : listing.ValueOrDie()) {
    kept |= ("/db/" + name == victim.ValueOrDie() + ".quarantined");
  }
  EXPECT_TRUE(kept) << "the corrupt file must be kept aside, not deleted";
  // Either way the store stays usable.
  ASSERT_TRUE(store_->Put(WriteOptions(), "after", value).ok());
  auto r = store_->Get(ReadOptions(), "after");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), value);
}

}  // namespace
}  // namespace storage
}  // namespace iotdb
