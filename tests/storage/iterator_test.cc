// Merging-iterator and DBIter edge cases, plus a multi-threaded
// reader/writer stress test of the store.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "common/random.h"
#include "storage/comparator.h"
#include "storage/db_iter.h"
#include "storage/env.h"
#include "storage/kvstore.h"
#include "storage/memtable.h"
#include "storage/merger.h"

namespace iotdb {
namespace storage {
namespace {

/// Simple vector-backed iterator for merger tests.
class VectorIterator final : public Iterator {
 public:
  explicit VectorIterator(
      std::vector<std::pair<std::string, std::string>> entries)
      : entries_(std::move(entries)), index_(entries_.size()) {}

  bool Valid() const override { return index_ < entries_.size(); }
  void SeekToFirst() override { index_ = 0; }
  void Seek(const Slice& target) override {
    index_ = 0;
    while (index_ < entries_.size() &&
           Slice(entries_[index_].first).compare(target) < 0) {
      ++index_;
    }
  }
  void Next() override { ++index_; }
  Slice key() const override { return entries_[index_].first; }
  Slice value() const override { return entries_[index_].second; }
  Status status() const override { return Status::OK(); }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
  size_t index_;
};

TEST(MergingIteratorTest, MergesSortedStreams) {
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{{"a", "1"},
                                                       {"d", "4"}}));
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{{"b", "2"},
                                                       {"e", "5"}}));
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{{"c", "3"}}));

  auto merged = NewMergingIterator(BytewiseComparator(),
                                   std::move(children));
  std::string keys;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    keys += merged->key().ToString();
  }
  EXPECT_EQ(keys, "abcde");
}

TEST(MergingIteratorTest, SeekThenNext) {
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{{"a", "1"},
                                                       {"c", "3"}}));
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{{"b", "2"},
                                                       {"d", "4"}}));
  auto merged = NewMergingIterator(BytewiseComparator(),
                                   std::move(children));
  merged->Seek("b");
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->key().ToString(), "b");
  merged->Next();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->key().ToString(), "c");
  merged->Next();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->key().ToString(), "d");
  merged->Next();
  EXPECT_FALSE(merged->Valid());
}

TEST(MergingIteratorTest, EmptyChildrenAreEmpty) {
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{}));
  auto merged = NewMergingIterator(BytewiseComparator(),
                                   std::move(children));
  merged->SeekToFirst();
  EXPECT_FALSE(merged->Valid());
}

class DBIterTest : public ::testing::Test {
 protected:
  DBIterTest() : icmp_(BytewiseComparator()), mem_(new MemTable(icmp_)) {
    mem_->Ref();
  }
  ~DBIterTest() override { mem_->Unref(); }

  std::unique_ptr<Iterator> MakeDBIter(SequenceNumber snapshot) {
    return NewDBIterator(&icmp_, mem_->NewIterator(), snapshot);
  }

  InternalKeyComparator icmp_;
  MemTable* mem_;
};

TEST_F(DBIterTest, CollapsesVersionsToNewestVisible) {
  mem_->Add(1, ValueType::kValue, "k", "v1");
  mem_->Add(5, ValueType::kValue, "k", "v5");
  mem_->Add(9, ValueType::kValue, "k", "v9");

  auto at9 = MakeDBIter(9);
  at9->SeekToFirst();
  ASSERT_TRUE(at9->Valid());
  EXPECT_EQ(at9->value().ToString(), "v9");
  at9->Next();
  EXPECT_FALSE(at9->Valid());

  auto at5 = MakeDBIter(5);
  at5->SeekToFirst();
  ASSERT_TRUE(at5->Valid());
  EXPECT_EQ(at5->value().ToString(), "v5");
}

TEST_F(DBIterTest, TombstoneHidesOlderVersions) {
  mem_->Add(1, ValueType::kValue, "a", "va");
  mem_->Add(2, ValueType::kValue, "b", "vb");
  mem_->Add(3, ValueType::kDeletion, "a", "");

  auto iter = MakeDBIter(10);
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "b");
  iter->Next();
  EXPECT_FALSE(iter->Valid());

  // At a snapshot before the delete, "a" is visible.
  auto old_iter = MakeDBIter(2);
  old_iter->SeekToFirst();
  ASSERT_TRUE(old_iter->Valid());
  EXPECT_EQ(old_iter->key().ToString(), "a");
}

TEST_F(DBIterTest, SeekSkipsDeletedRange) {
  mem_->Add(1, ValueType::kValue, "a", "1");
  mem_->Add(2, ValueType::kValue, "b", "2");
  mem_->Add(3, ValueType::kDeletion, "b", "");
  mem_->Add(4, ValueType::kValue, "c", "3");

  auto iter = MakeDBIter(10);
  iter->Seek("b");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "c");
}

TEST(KVStoreConcurrencyTest, ParallelWritersAndReaders) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options.write_buffer_size = 64 * 1024;
  auto store = KVStore::Open(options, "/stress").MoveValueUnsafe();

  constexpr int kWriters = 3;
  constexpr int kKeysPerWriter = 3000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, w] {
      std::string value(200, static_cast<char>('a' + w));
      for (int i = 0; i < kKeysPerWriter; ++i) {
        char key[32];
        snprintf(key, sizeof(key), "w%d-%06d", w, i);
        ASSERT_TRUE(store->Put(WriteOptions(), key, value).ok());
      }
    });
  }
  // Two readers scanning and point-reading concurrently with the writers.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&store, &stop, &reads, r] {
      Random rng(r + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        char key[32];
        snprintf(key, sizeof(key), "w%d-%06d",
                 static_cast<int>(rng.Uniform(kWriters)),
                 static_cast<int>(rng.Uniform(kKeysPerWriter)));
        auto result = store->Get(ReadOptions(), key);
        ASSERT_TRUE(result.ok() || result.status().IsNotFound());
        auto iter = store->NewIterator(ReadOptions());
        iter->Seek(key);
        int n = 0;
        while (iter->Valid() && n < 20) {
          iter->Next();
          ++n;
        }
        ASSERT_TRUE(iter->status().ok());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  store->WaitForBackgroundWork();
  EXPECT_EQ(store->CountKeysSlow(),
            static_cast<uint64_t>(kWriters) * kKeysPerWriter);
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
}  // namespace storage
}  // namespace iotdb
