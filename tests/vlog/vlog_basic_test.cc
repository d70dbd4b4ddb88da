#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/env.h"
#include "storage/kvstore.h"
#include "storage/vlog_format.h"

namespace iotdb {
namespace storage {
namespace {

// ---------------------------------------------------------------------------
// Record format

TEST(VlogFormatTest, RecordRoundTrip) {
  std::string buf;
  uint32_t size = vlog::AppendRecord(&buf, "sensor-key", "payload-value");
  ASSERT_EQ(size, buf.size());

  Slice input(buf);
  Slice key, value;
  uint32_t record_size = 0;
  ASSERT_TRUE(vlog::ParseRecord(&input, &key, &value, &record_size).ok());
  EXPECT_EQ(key, Slice("sensor-key"));
  EXPECT_EQ(value, Slice("payload-value"));
  EXPECT_EQ(record_size, size);
  EXPECT_TRUE(input.empty());
}

TEST(VlogFormatTest, MultipleRecordsParseInSequence) {
  std::string buf;
  for (int i = 0; i < 10; ++i) {
    vlog::AppendRecord(&buf, "k" + std::to_string(i),
                       std::string(100 + i, 'v'));
  }
  Slice input(buf);
  for (int i = 0; i < 10; ++i) {
    Slice key, value;
    uint32_t record_size = 0;
    ASSERT_TRUE(vlog::ParseRecord(&input, &key, &value, &record_size).ok());
    EXPECT_EQ(key, Slice("k" + std::to_string(i)));
    EXPECT_EQ(value.size(), 100u + i);
  }
  EXPECT_TRUE(input.empty());
}

TEST(VlogFormatTest, FlippedBitFailsChecksum) {
  std::string buf;
  vlog::AppendRecord(&buf, "key", std::string(64, 'v'));
  for (size_t bit : {size_t{0}, buf.size() * 8 / 2, buf.size() * 8 - 1}) {
    std::string damaged = buf;
    damaged[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    Slice input(damaged);
    Slice key, value;
    uint32_t record_size = 0;
    Status s = vlog::ParseRecord(&input, &key, &value, &record_size);
    EXPECT_TRUE(s.IsCorruption()) << "bit " << bit << ": " << s.ToString();
  }
}

TEST(VlogFormatTest, TruncatedRecordIsCorruption) {
  std::string buf;
  vlog::AppendRecord(&buf, "key", std::string(64, 'v'));
  for (size_t len = 0; len < buf.size(); len += 7) {
    Slice input(buf.data(), len);
    Slice key, value;
    uint32_t record_size = 0;
    EXPECT_TRUE(vlog::ParseRecord(&input, &key, &value, &record_size)
                    .IsCorruption())
        << "prefix length " << len;
  }
}

TEST(VlogFormatTest, ValuePointerRoundTrip) {
  vlog::ValuePointer ptr;
  ptr.file_no = 0x1122334455667788ull;
  ptr.offset = 0x99aabbccddeeff00ull;
  ptr.size = 0xdeadbeef;

  std::string encoded;
  vlog::EncodeValuePointer(&encoded, ptr);
  ASSERT_EQ(encoded.size(), vlog::kValuePointerEncodedSize);
  ASSERT_TRUE(vlog::IsValuePointer(encoded));

  vlog::ValuePointer decoded;
  ASSERT_TRUE(vlog::DecodeValuePointer(encoded, &decoded));
  EXPECT_TRUE(decoded == ptr);
}

TEST(VlogFormatTest, InlineTaggedValueIsNotAPointer) {
  // An inline value of exactly pointer size must not be mistaken for one.
  std::string inline_value(1, vlog::kInlineTag);
  inline_value.append(vlog::kValuePointerEncodedSize - 1, 'x');
  EXPECT_FALSE(vlog::IsValuePointer(inline_value));
}

// ---------------------------------------------------------------------------
// End-to-end separation through the store

class VlogStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.env = env_.get();
    options_.write_buffer_size = 64 * 1024;
    options_.value_separation = true;
    options_.min_value_size = 64;
    options_.background_vlog_gc = false;
    Open();
  }

  void Open() {
    auto result = KVStore::Open(options_, "/db");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    store_ = std::move(result).MoveValueUnsafe();
  }

  void Reopen() {
    store_.reset();
    Open();
  }

  std::string Get(const std::string& key) {
    auto r = store_->Get(ReadOptions(), key);
    return r.ok() ? r.ValueOrDie() : "NOT_FOUND";
  }

  static std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  static std::string BigValue(int i, char fill = 'v') {
    std::string v = "val" + std::to_string(i) + ":";
    v.append(200, fill);
    return v;
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<KVStore> store_;
};

TEST_F(VlogStoreTest, LargeValuesAreSeparatedSmallStayInline) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "small", "tiny").ok());
  ASSERT_TRUE(store_->Put(WriteOptions(), "large", BigValue(1)).ok());

  auto stats = store_->GetStats();
  EXPECT_GT(stats.vlog_appended_bytes, 0u);
  EXPECT_GE(stats.vlog_files, 1u);

  EXPECT_EQ(Get("small"), "tiny");
  EXPECT_EQ(Get("large"), BigValue(1));
  EXPECT_GE(store_->GetStats().vlog_dereferences, 1u);
}

TEST_F(VlogStoreTest, NoVlogTrafficWhenAllValuesSmall) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), "small").ok());
  }
  EXPECT_EQ(store_->GetStats().vlog_appended_bytes, 0u);
}

TEST_F(VlogStoreTest, SeparatedValuesSurviveFlushCompactionAndReopen) {
  const int kN = 500;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), BigValue(i)).ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(Get(Key(i)), BigValue(i)) << Key(i);
  }

  ASSERT_TRUE(store_->CompactAll().ok());
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(Get(Key(i)), BigValue(i)) << Key(i);
  }

  Reopen();
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(Get(Key(i)), BigValue(i)) << Key(i);
  }
}

TEST_F(VlogStoreTest, OverwritesAndDeletesBehaveNormally) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", BigValue(1)).ok());
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", BigValue(2)).ok());
  EXPECT_EQ(Get("k"), BigValue(2));

  ASSERT_TRUE(store_->Delete(WriteOptions(), "k").ok());
  EXPECT_EQ(Get("k"), "NOT_FOUND");

  // Big -> small transition: the newest version is inline again.
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", BigValue(3)).ok());
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", "small").ok());
  EXPECT_EQ(Get("k"), "small");
}

TEST_F(VlogStoreTest, IteratorAndScanDereferencePointers) {
  for (int i = 0; i < 50; ++i) {
    std::string value = (i % 2 == 0) ? BigValue(i) : "s" + std::to_string(i);
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), value).ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());

  auto iter = store_->NewIterator(ReadOptions());
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++count) {
    int i = count;
    std::string expected =
        (i % 2 == 0) ? BigValue(i) : "s" + std::to_string(i);
    EXPECT_EQ(iter->key(), Slice(Key(i)));
    EXPECT_EQ(iter->value(), Slice(expected)) << Key(i);
  }
  EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
  EXPECT_EQ(count, 50);
  iter.reset();

  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(store_->Scan(ReadOptions(), Key(10), Key(14), 0, &rows).ok());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].second, BigValue(10));
  EXPECT_EQ(rows[1].second, "s11");
}

TEST_F(VlogStoreTest, ActiveVlogRollsAtFileSizeLimit) {
  options_.vlog_file_size = 8 * 1024;
  Reopen();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), BigValue(i)).ok());
  }
  auto stats = store_->GetStats();
  EXPECT_GT(stats.vlog_files, 2u) << "expected several rolled vlog files";
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(Get(Key(i)), BigValue(i)) << Key(i);
  }
  Reopen();
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(Get(Key(i)), BigValue(i)) << Key(i);
  }
}

TEST_F(VlogStoreTest, ManifestSeparationFlagWinsOverOptions) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", BigValue(1)).ok());
  ASSERT_TRUE(store_->FlushMemTable().ok());

  // Reopening with the flag off must not lose access to separated values:
  // the manifest's vlog_sep bit overrides the Options mismatch.
  options_.value_separation = false;
  Reopen();
  EXPECT_EQ(Get("k"), BigValue(1));
  ASSERT_TRUE(store_->Put(WriteOptions(), "k2", BigValue(2)).ok());
  EXPECT_EQ(Get("k2"), BigValue(2));
  EXPECT_GT(store_->GetStats().vlog_appended_bytes, 0u)
      << "store must keep separating: the manifest says vlog_sep 1";
}

TEST_F(VlogStoreTest, PlainStoreStaysPlainDespiteOptionsFlag) {
  // A store created without separation keeps rejecting it on reopen, so a
  // fleet-wide Options change cannot silently mix formats mid-store.
  options_.value_separation = false;
  ASSERT_TRUE(KVStore::Destroy(options_, "/plain").ok());
  {
    auto result = KVStore::Open(options_, "/plain");
    ASSERT_TRUE(result.ok());
    auto plain = std::move(result).MoveValueUnsafe();
    ASSERT_TRUE(plain->Put(WriteOptions(), "k", BigValue(1)).ok());
    ASSERT_TRUE(plain->FlushMemTable().ok());
  }
  options_.value_separation = true;
  auto result = KVStore::Open(options_, "/plain");
  ASSERT_TRUE(result.ok());
  auto plain = std::move(result).MoveValueUnsafe();
  ASSERT_TRUE(plain->Put(WriteOptions(), "k2", BigValue(2)).ok());
  EXPECT_EQ(plain->GetStats().vlog_appended_bytes, 0u);
  auto r = plain->Get(ReadOptions(), "k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), BigValue(1));
}

TEST_F(VlogStoreTest, WalReplayRestoresSeparatedValues) {
  // No flush: everything lives in WAL + vlog only.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), BigValue(i)).ok());
  }
  Reopen();
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(Get(Key(i)), BigValue(i)) << Key(i);
  }
}

TEST_F(VlogStoreTest, MixedWorkloadMatchesModelAcrossReopen) {
  options_.vlog_file_size = 16 * 1024;
  Reopen();
  Random rng(20260808);
  std::map<std::string, std::string> model;
  for (int round = 0; round < 3; ++round) {
    for (int op = 0; op < 400; ++op) {
      std::string key = Key(static_cast<int>(rng.Uniform(120)));
      switch (rng.Uniform(4)) {
        case 0:
          ASSERT_TRUE(store_->Delete(WriteOptions(), key).ok());
          model.erase(key);
          break;
        case 1: {
          std::string small = "s" + std::to_string(rng.Uniform(1000));
          ASSERT_TRUE(store_->Put(WriteOptions(), key, small).ok());
          model[key] = small;
          break;
        }
        default: {
          std::string big(64 + rng.Uniform(512),
                          static_cast<char>('a' + rng.Uniform(26)));
          ASSERT_TRUE(store_->Put(WriteOptions(), key, big).ok());
          model[key] = big;
          break;
        }
      }
    }
    if (round == 1) {
      ASSERT_TRUE(store_->FlushMemTable().ok());
      ASSERT_TRUE(store_->CompactAll().ok());
    }
    for (const auto& [key, value] : model) {
      ASSERT_EQ(Get(key), value) << key;
    }
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(store_->Scan(ReadOptions(), "", "", 0, &rows).ok());
    ASSERT_EQ(rows.size(), model.size());
    auto it = model.begin();
    for (const auto& [key, value] : rows) {
      ASSERT_EQ(key, it->first);
      ASSERT_EQ(value, it->second);
      ++it;
    }
    Reopen();
  }
}

}  // namespace
}  // namespace storage
}  // namespace iotdb
