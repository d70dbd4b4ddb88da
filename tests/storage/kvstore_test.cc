#include "storage/kvstore.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/comparator.h"
#include "storage/env.h"

namespace iotdb {
namespace storage {
namespace {

class KVStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.env = env_.get();
    options_.write_buffer_size = 64 * 1024;  // small: force flushes
    options_.l0_compaction_trigger = 4;
    auto result = KVStore::Open(options_, "/db");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    store_ = std::move(result).MoveValueUnsafe();
  }

  void Reopen() {
    store_.reset();
    auto result = KVStore::Open(options_, "/db");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    store_ = std::move(result).MoveValueUnsafe();
  }

  std::string Get(const std::string& key) {
    auto r = store_->Get(ReadOptions(), key);
    return r.ok() ? r.ValueOrDie() : "NOT_FOUND";
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<KVStore> store_;
};

TEST_F(KVStoreTest, PutGet) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "k1", "v1").ok());
  EXPECT_EQ(Get("k1"), "v1");
  EXPECT_EQ(Get("missing"), "NOT_FOUND");
}

TEST_F(KVStoreTest, Overwrite) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", "v1").ok());
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", "v2").ok());
  EXPECT_EQ(Get("k"), "v2");
}

TEST_F(KVStoreTest, DeleteHidesKey) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(store_->Delete(WriteOptions(), "k").ok());
  EXPECT_EQ(Get("k"), "NOT_FOUND");
}

TEST_F(KVStoreTest, GetSurvivesFlush) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(store_->FlushMemTable().ok());
  EXPECT_EQ(Get("k"), "v");
  auto stats = store_->GetStats();
  EXPECT_GE(stats.memtable_flushes, 1u);
  EXPECT_GE(stats.num_files[0], 1);
}

TEST_F(KVStoreTest, ManyKeysWithFlushesAndCompactions) {
  const int kN = 20000;
  std::string value(100, 'x');
  for (int i = 0; i < kN; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "key%08d", i);
    ASSERT_TRUE(store_->Put(WriteOptions(), key, value).ok());
  }
  store_->WaitForBackgroundWork();
  for (int i = 0; i < kN; i += 997) {
    char key[32];
    snprintf(key, sizeof(key), "key%08d", i);
    EXPECT_EQ(Get(key), value) << key;
  }
  EXPECT_EQ(store_->CountKeysSlow(), static_cast<uint64_t>(kN));
}

TEST_F(KVStoreTest, ScanRange) {
  for (int i = 0; i < 100; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(store_->Put(WriteOptions(), key, "v").ok());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(store_->Scan(ReadOptions(), "k010", "k020", 0, &rows).ok());
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows.front().first, "k010");
  EXPECT_EQ(rows.back().first, "k019");
}

TEST_F(KVStoreTest, ScanWithLimit) {
  for (int i = 0; i < 50; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(store_->Put(WriteOptions(), key, "v").ok());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(store_->Scan(ReadOptions(), "", "", 7, &rows).ok());
  EXPECT_EQ(rows.size(), 7u);
}

TEST_F(KVStoreTest, RecoveryFromWal) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "persist", "me").ok());
  Reopen();
  EXPECT_EQ(Get("persist"), "me");
}

TEST_F(KVStoreTest, RecoveryAfterFlushAndMoreWrites) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "a", "1").ok());
  ASSERT_TRUE(store_->FlushMemTable().ok());
  ASSERT_TRUE(store_->Put(WriteOptions(), "b", "2").ok());
  Reopen();
  EXPECT_EQ(Get("a"), "1");
  EXPECT_EQ(Get("b"), "2");
}

TEST_F(KVStoreTest, SnapshotIsolation) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", "old").ok());
  SequenceNumber snap = store_->GetSnapshot();
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", "new").ok());
  EXPECT_EQ(Get("k"), "new");
  store_->ReleaseSnapshot(snap);
}

TEST_F(KVStoreTest, WriteBatchAtomicity) {
  WriteBatch batch;
  batch.Put("x", "1");
  batch.Put("y", "2");
  batch.Delete("x");
  ASSERT_TRUE(store_->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ(Get("x"), "NOT_FOUND");
  EXPECT_EQ(Get("y"), "2");
}

TEST_F(KVStoreTest, CompactAllMovesDataDown) {
  std::string value(500, 'z');
  for (int i = 0; i < 2000; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(store_->Put(WriteOptions(), key, value).ok());
  }
  ASSERT_TRUE(store_->CompactAll().ok());
  auto stats = store_->GetStats();
  EXPECT_EQ(stats.num_files[0], 0);
  EXPECT_EQ(store_->CountKeysSlow(), 2000u);
  EXPECT_EQ(Get("key000000"), value);
  EXPECT_EQ(Get("key001999"), value);
}

// Forwards to a base Env and counts RandomAccessFile::Read calls on .sst
// files: every block, footer and index read of a table is one call.
class TableReadCountingEnv final : public Env {
 public:
  explicit TableReadCountingEnv(Env* base) : base_(base) {}

  uint64_t table_reads() const {
    return table_reads_.load(std::memory_order_relaxed);
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    return base_->NewWritableFile(path);
  }
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    IOTDB_ASSIGN_OR_RETURN(auto file, base_->NewRandomAccessFile(path));
    if (!path.ends_with(".sst")) return file;
    return std::unique_ptr<RandomAccessFile>(
        new CountingFile(std::move(file), &table_reads_));
  }
  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override {
    return base_->NewSequentialFile(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status OverwriteFileRange(const std::string& path, uint64_t offset,
                            const Slice& data) override {
    return base_->OverwriteFileRange(path, offset, data);
  }

 private:
  class CountingFile final : public RandomAccessFile {
   public:
    CountingFile(std::unique_ptr<RandomAccessFile> file,
                 std::atomic<uint64_t>* reads)
        : file_(std::move(file)), reads_(reads) {}

    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      reads_->fetch_add(1, std::memory_order_relaxed);
      return file_->Read(offset, n, result, scratch);
    }
    uint64_t Size() const override { return file_->Size(); }

   private:
    std::unique_ptr<RandomAccessFile> file_;
    std::atomic<uint64_t>* reads_;
  };

  Env* const base_;
  std::atomic<uint64_t> table_reads_{0};
};

TEST_F(KVStoreTest, BoundedScanReadsOnlyOverlappingTables) {
  TableReadCountingEnv env(env_.get());
  options_.env = &env;
  options_.write_buffer_size = 1024 * 1024;
  // The 1000-byte values stay inline, so the rows fill enough tables for
  // pruning to show (separated, they would leave only a few pointer
  // tables).
  options_.min_value_size = 1001;
  auto store = KVStore::Open(options_, "/bounded").MoveValueUnsafe();
  const std::string value(1000, 'v');
  const int kKeys = 12000;
  auto key = [](int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return std::string(buf);
  };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(store->Put(WriteOptions(), key(i), value).ok());
  }
  ASSERT_TRUE(store->CompactAll().ok());
  store->WaitForBackgroundWork();
  // Every table a scan opens outside its range costs a block read, so the
  // store needs enough disjoint tables for that to show.
  const KVStoreStats compacted = store->GetStats();
  int tables = 0;
  for (int level = 0; level < kNumLevels; ++level) {
    tables += compacted.num_files[level];
  }
  ASSERT_GE(tables, 6);

  for (int first : {0, kKeys - 10}) {
    const uint64_t before = env.table_reads();
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(store->Scan(ReadOptions(), key(first), key(first + 10), 0,
                            &rows)
                    .ok());
    ASSERT_EQ(rows.size(), 10u);
    EXPECT_EQ(rows.front().first, key(first));
    EXPECT_EQ(rows.back().first, key(first + 9));
    // 10 rows of 1000 B span at most 4 blocks of 4 KiB, plus one
    // look-ahead block.
    const uint64_t reads = env.table_reads() - before;
    EXPECT_LE(reads, 5u) << "scan from " << key(first) << " of " << tables
                         << " tables";
  }
}

TEST_F(KVStoreTest, DestroyRemovesEverything) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(store_->FlushMemTable().ok());
  store_.reset();
  ASSERT_TRUE(KVStore::Destroy(options_, "/db").ok());
  auto listing = options_.env->ListDir("/db");
  ASSERT_TRUE(listing.ok());
  EXPECT_TRUE(listing.ValueOrDie().empty());
}

TEST_F(KVStoreTest, DeletionsAcrossFlushBoundaries) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(store_->FlushMemTable().ok());
  ASSERT_TRUE(store_->Delete(WriteOptions(), "k").ok());
  ASSERT_TRUE(store_->FlushMemTable().ok());
  EXPECT_EQ(Get("k"), "NOT_FOUND");
  auto iter = store_->NewIterator(ReadOptions());
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
}

TEST_F(KVStoreTest, PutManyRoundTrip) {
  const int kN = 1000;
  std::vector<std::string> keys, values;
  for (int i = 0; i < kN; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "key%06d", i);
    keys.push_back(key);
    values.push_back("value-" + std::to_string(i));
  }
  std::vector<KvEntry> entries;
  for (int i = 0; i < kN; ++i) {
    entries.push_back({Slice(keys[i]), Slice(values[i])});
  }
  ASSERT_TRUE(store_->PutMany(WriteOptions(), entries).ok());
  EXPECT_EQ(store_->GetStats().puts, static_cast<uint64_t>(kN));

  // Once live, once replayed from the WAL.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kN; ++i) EXPECT_EQ(Get(keys[i]), values[i]);
    EXPECT_EQ(store_->CountKeysSlow(), static_cast<uint64_t>(kN));
    Reopen();
  }
}

// Snapshot prefix order under concurrency: eight writers each put their
// own key series in program order while a reader iterates. A writer's puts
// get increasing sequences and a snapshot admits exactly the published
// prefix, so every iterator must see a *prefix* of each writer's series —
// key i visible while some j < i is not means visibility was published out
// of sequence order.
TEST_F(KVStoreTest, SnapshotPrefixUnderConcurrentWriters) {
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 400;
  auto writer_key = [](int w, int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "w%02d-%05d", w, i);
    return std::string(buf);
  };

  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerWriter; ++i) {
        ASSERT_TRUE(store_->Put(WriteOptions(), writer_key(w, i),
                                "value-" + std::to_string(i))
                        .ok());
      }
    });
  }

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto it = store_->NewIterator(ReadOptions());
      int max_seen[kWriters];
      int count_seen[kWriters];
      for (int w = 0; w < kWriters; ++w) {
        max_seen[w] = -1;
        count_seen[w] = 0;
      }
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        int w = 0, i = 0;
        ASSERT_EQ(sscanf(it->key().ToString().c_str(), "w%d-%d", &w, &i), 2);
        if (i > max_seen[w]) max_seen[w] = i;
        ++count_seen[w];
      }
      ASSERT_TRUE(it->status().ok());
      for (int w = 0; w < kWriters; ++w) {
        ASSERT_EQ(count_seen[w], max_seen[w] + 1)
            << "writer " << w << " has a visibility gap";
      }
    }
  });

  go.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // After every writer joined, everything is published and visible.
  EXPECT_EQ(store_->CountKeysSlow(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
}

}  // namespace
}  // namespace storage
}  // namespace iotdb
