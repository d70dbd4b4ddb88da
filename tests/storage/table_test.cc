// Bloom filter, block, and SSTable tests.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/random.h"
#include "storage/block.h"
#include "storage/block_builder.h"
#include "storage/bloom.h"
#include "storage/comparator.h"
#include "storage/dbformat.h"
#include "storage/env.h"
#include "storage/table.h"
#include "storage/table_builder.h"

namespace iotdb {
namespace storage {
namespace {

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 5000; ++i) {
    builder.AddKey("key" + std::to_string(i));
  }
  std::string filter = builder.Finish();
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(BloomFilterMayMatch(filter, "key" + std::to_string(i)))
        << i;
  }
}

TEST(BloomTest, FalsePositiveRateIsReasonable) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 10000; ++i) {
    builder.AddKey("present" + std::to_string(i));
  }
  std::string filter = builder.Finish();
  int false_positives = 0;
  const int kProbes = 10000;
  for (int i = 0; i < kProbes; ++i) {
    if (BloomFilterMayMatch(filter, "absent" + std::to_string(i))) {
      false_positives++;
    }
  }
  // 10 bits/key targets ~1%; allow generous slack.
  EXPECT_LT(false_positives, kProbes / 25);
}

TEST(BloomTest, EmptyFilterMatchesEverything) {
  EXPECT_TRUE(BloomFilterMayMatch(Slice(), "anything"));
}

TEST(BlockTest, BuildAndIterate) {
  BlockBuilder builder(4, BytewiseComparator());
  std::map<std::string, std::string> model;
  for (int i = 0; i < 200; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%05d", i);
    std::string value = "value" + std::to_string(i);
    builder.Add(key, value);
    model[key] = value;
  }
  Block block(builder.Finish().ToString());

  auto iter = block.NewIterator(BytewiseComparator());
  iter->SeekToFirst();
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(iter->key().ToString(), key);
    EXPECT_EQ(iter->value().ToString(), value);
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().ok());
}

TEST(BlockTest, SeekLandsOnLowerBound) {
  BlockBuilder builder(16, BytewiseComparator());
  for (int i = 0; i < 100; i += 2) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    builder.Add(key, "v");
  }
  Block block(builder.Finish().ToString());
  auto iter = block.NewIterator(BytewiseComparator());

  iter->Seek("k0013");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "k0014");
  iter->Seek("k0014");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "k0014");
  iter->Seek("k9999");
  EXPECT_FALSE(iter->Valid());
}

TEST(BlockTest, MalformedBlockYieldsErrorIterator) {
  Block block(std::string("x"));  // shorter than the restart count
  auto iter = block.NewIterator(BytewiseComparator());
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().IsCorruption());
}

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.env = env_.get();
    options_.comparator = &icmp_;
    options_.block_size = 512;  // many blocks
  }

  // Builds a table of internal keys from user-key model entries.
  void BuildTable(const std::map<std::string, std::string>& model) {
    auto file = env_->NewWritableFile("/table.sst").MoveValueUnsafe();
    TableBuilder builder(options_, file.get());
    SequenceNumber seq = 1;
    for (const auto& [key, value] : model) {
      std::string ikey;
      AppendInternalKey(&ikey, key, seq++, ValueType::kValue);
      builder.Add(ikey, value);
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Close().ok());
  }

  std::unique_ptr<Table> OpenTable() {
    auto file = env_->NewRandomAccessFile("/table.sst").MoveValueUnsafe();
    auto result = Table::Open(options_, std::move(file));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).MoveValueUnsafe();
  }

  InternalKeyComparator icmp_{BytewiseComparator()};
  std::unique_ptr<Env> env_;
  Options options_;
};

TEST_F(TableTest, BuildThenScanAll) {
  std::map<std::string, std::string> model;
  Random rng(77);
  for (int i = 0; i < 3000; ++i) {
    char key[24];
    snprintf(key, sizeof(key), "user%06d", i);
    model[key] = rng.RandomPrintableString(20);
  }
  BuildTable(model);
  auto table = OpenTable();

  auto iter = table->NewIterator();
  iter->SeekToFirst();
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), key);
    EXPECT_EQ(iter->value().ToString(), value);
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(TableTest, SeekAcrossBlocks) {
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1000; ++i) {
    char key[24];
    snprintf(key, sizeof(key), "user%06d", i * 2);
    model[key] = "v" + std::to_string(i);
  }
  BuildTable(model);
  auto table = OpenTable();
  auto iter = table->NewIterator();

  // Seek to a key between entries; internal key with max sequence seeks to
  // the first entry >= the user key.
  std::string target;
  AppendInternalKey(&target, "user000999", kMaxSequenceNumber,
                    kValueTypeForSeek);
  iter->Seek(target);
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), "user001000");
}

TEST_F(TableTest, ReadLastKeyIsTheLastKeyAdded) {
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; ++i) {
    char key[24];
    snprintf(key, sizeof(key), "user%06d", i);
    model[key] = "v" + std::to_string(i);
  }
  BuildTable(model);
  auto table = OpenTable();
  int data_blocks = 0;
  auto index_iter = table->index_block()->NewIterator(table->comparator());
  for (index_iter->SeekToFirst(); index_iter->Valid(); index_iter->Next()) {
    ++data_blocks;
  }
  ASSERT_GT(data_blocks, 10);

  auto last = table->ReadLastKey();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  std::string expected;
  AppendInternalKey(&expected, "user002999", 3000, ValueType::kValue);
  EXPECT_EQ(last.ValueOrDie(), expected);

  // One entry: the only key is also the last.
  index_iter.reset();
  table.reset();
  BuildTable({{"only", "v"}});
  table = OpenTable();
  last = table->ReadLastKey();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  expected.clear();
  AppendInternalKey(&expected, "only", 1, ValueType::kValue);
  EXPECT_EQ(last.ValueOrDie(), expected);
}

TEST_F(TableTest, InternalGetFindsAndRejects) {
  std::map<std::string, std::string> model;
  for (int i = 0; i < 500; ++i) {
    model["key" + std::to_string(i)] = "value" + std::to_string(i);
  }
  BuildTable(model);
  auto table = OpenTable();

  struct Hit {
    bool found = false;
    std::string value;
  };
  auto handler = [](void* arg, const Slice& k, const Slice& v) {
    auto* hit = static_cast<Hit*>(arg);
    ParsedInternalKey parsed;
    if (ParseInternalKey(k, &parsed) &&
        parsed.user_key == Slice("key250")) {
      hit->found = true;
      hit->value = v.ToString();
    }
  };

  Hit hit;
  std::string lookup = MakeLookupKey("key250", kMaxSequenceNumber);
  ASSERT_TRUE(table->InternalGet(lookup, &hit, handler).ok());
  EXPECT_TRUE(hit.found);
  EXPECT_EQ(hit.value, "value250");

  Hit miss;
  lookup = MakeLookupKey("key_that_is_not_there", kMaxSequenceNumber);
  ASSERT_TRUE(table->InternalGet(lookup, &miss, handler).ok());
  EXPECT_FALSE(miss.found);
}

TEST_F(TableTest, CorruptedBlockDetected) {
  std::map<std::string, std::string> model{{"a", "1"}, {"b", "2"}};
  BuildTable(model);
  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString("/table.sst", &contents).ok());
  contents[2] ^= 0x40;  // flip a bit in the first data block
  ASSERT_TRUE(env_->WriteStringToFile("/table.sst", contents).ok());

  auto file = env_->NewRandomAccessFile("/table.sst").MoveValueUnsafe();
  auto table_result = Table::Open(options_, std::move(file));
  if (table_result.ok()) {
    auto iter = table_result.ValueOrDie()->NewIterator();
    iter->SeekToFirst();
    // Either the iterator surfaces corruption or yields nothing.
    if (iter->Valid()) {
      while (iter->Valid()) iter->Next();
    }
    EXPECT_FALSE(iter->status().ok());
  }
  // (If the corruption hit the index/footer, Open itself failed: also OK.)
}

TEST_F(TableTest, NotATableRejected) {
  ASSERT_TRUE(env_->WriteStringToFile("/table.sst",
                                      std::string(2000, 'j')).ok());
  auto file = env_->NewRandomAccessFile("/table.sst").MoveValueUnsafe();
  auto result = Table::Open(options_, std::move(file));
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace storage
}  // namespace iotdb
