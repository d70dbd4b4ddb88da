#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/env.h"
#include "storage/kvstore.h"
#include "storage/vlog_format.h"
#include "storage/vlog_reader.h"
#include "storage/vlog_writer.h"

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

  vlog::ValuePointer decoded;
  ASSERT_TRUE(vlog::DecodeValuePointer(encoded, &decoded));
  EXPECT_TRUE(decoded == ptr);
  EXPECT_FALSE(vlog::DecodeValuePointer(Slice(encoded.data(), 19), &decoded));
  EXPECT_FALSE(vlog::DecodeValuePointer(encoded + "x", &decoded));
}

TEST(VlogFormatTest, InlineTaggedValueIsNotAPointer) {
  // The entry's type, not its bytes, says whether a value is a pointer: an
  // inline value that is exactly the encoding of a valid pointer (here to
  // another key's record) reads back verbatim, before and after a flush.
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options.min_value_size = 64;
  auto store = KVStore::Open(options, "/db").MoveValueUnsafe();
  ASSERT_TRUE(store->Put(WriteOptions(), "a", std::string(100, 'v')).ok());
  ASSERT_TRUE(store->FlushMemTable().ok());
  auto listing = env->ListDir("/db");
  ASSERT_TRUE(listing.ok());
  uint64_t vlog_number = 0;
  for (const auto& name : listing.ValueOrDie()) {
    if (name.find(".vlog") != std::string::npos) {
      vlog_number = std::stoull(name.substr(0, name.find('.')));
    }
  }
  ASSERT_NE(vlog_number, 0u);
  std::string record;
  vlog::ValuePointer ptr;
  ptr.file_no = vlog_number;
  ptr.offset = 0;
  ptr.size = vlog::AppendRecord(&record, "a", std::string(100, 'v'));
  std::string lookalike;
  vlog::EncodeValuePointer(&lookalike, ptr);
  ASSERT_LT(lookalike.size(), options.min_value_size);

  ASSERT_TRUE(store->Put(WriteOptions(), "b", lookalike).ok());
  EXPECT_EQ(store->Get(ReadOptions(), "b").ValueOrDie(), lookalike);
  ASSERT_TRUE(store->FlushMemTable().ok());
  EXPECT_EQ(store->Get(ReadOptions(), "b").ValueOrDie(), lookalike);
  auto iter = store->NewIterator(ReadOptions());
  iter->Seek("b");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->value(), Slice(lookalike));
}

// ---------------------------------------------------------------------------
// Scrub walk: VlogReader::VerifyFile reads a file in bounded pieces

class VlogVerifyTest : public ::testing::Test {
 protected:
  // Writes `records` records of ~1000 bytes to vlog file 7 and returns the
  // pointers naming them.
  std::vector<vlog::ValuePointer> WriteFile(int records) {
    auto file = env_->NewWritableFile(vlog::VlogFileName("/db", 7));
    EXPECT_TRUE(file.ok());
    vlog::VlogWriter writer(std::move(file).MoveValueUnsafe(), 7);
    std::vector<vlog::ValuePointer> ptrs;
    for (int i = 0; i < records; ++i) {
      char key[32];
      snprintf(key, sizeof(key), "key%06d", i);
      vlog::ValuePointer ptr;
      EXPECT_TRUE(writer.Add(key, std::string(990 + i % 17, 'a' + i % 26),
                             &ptr)
                      .ok());
      ptrs.push_back(ptr);
    }
    EXPECT_TRUE(writer.Finish().ok());
    size_ = writer.offset();
    return ptrs;
  }

  std::unique_ptr<Env> env_ = NewMemEnv();
  uint64_t size_ = 0;
};

TEST_F(VlogVerifyTest, CleanFileOfSeveralReadsPasses) {
  WriteFile(300);
  ASSERT_GT(size_, 4 * vlog::VlogReader::kVerifyReadBytes);
  vlog::VlogReader reader(env_.get(), "/db");
  uint64_t checked = 0;
  ASSERT_TRUE(reader.VerifyFile(7, size_, &checked).ok());
  EXPECT_EQ(checked, size_);
  // A limit short of the file's end stops the walk there.
  checked = 0;
  EXPECT_TRUE(reader.VerifyFile(7, size_ - 1, &checked).IsCorruption());
}

TEST_F(VlogVerifyTest, RotInRecordAcrossReadBoundaryIsFound) {
  const std::vector<vlog::ValuePointer> ptrs = WriteFile(300);
  const uint64_t boundary = 2 * vlog::VlogReader::kVerifyReadBytes;
  const vlog::ValuePointer* straddler = nullptr;
  for (const auto& ptr : ptrs) {
    if (ptr.offset < boundary && ptr.offset + ptr.size > boundary) {
      straddler = &ptr;
    }
  }
  ASSERT_NE(straddler, nullptr);
  // Flip a byte past the boundary, in the part of the record the walk
  // reads only when it carries the record over into its next read.
  const std::string path = vlog::VlogFileName("/db", 7);
  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString(path, &contents).ok());
  const uint64_t at = boundary + (straddler->offset + straddler->size -
                                  boundary) / 2;
  const char flipped = static_cast<char>(contents[at] ^ 0x10);
  ASSERT_TRUE(env_->OverwriteFileRange(path, at, Slice(&flipped, 1)).ok());

  vlog::VlogReader reader(env_.get(), "/db");
  uint64_t checked = 0;
  EXPECT_TRUE(reader.VerifyFile(7, size_, &checked).IsCorruption());
  EXPECT_EQ(checked, straddler->offset) << "the walk stops at the record";
}

// ---------------------------------------------------------------------------
// End-to-end separation through the store

class VlogStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.env = env_.get();
    options_.write_buffer_size = 64 * 1024;
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
  // The commit path writes no vlog: values separate when the memtable
  // flushes.
  EXPECT_EQ(store_->GetStats().vlog_appended_bytes, 0u);
  EXPECT_EQ(store_->GetStats().vlog_files, 0u);
  EXPECT_EQ(Get("large"), BigValue(1));

  ASSERT_TRUE(store_->FlushMemTable().ok());
  auto stats = store_->GetStats();
  EXPECT_GT(stats.vlog_appended_bytes, 0u);
  EXPECT_EQ(stats.vlog_files, 1u);

  EXPECT_EQ(Get("small"), "tiny");
  EXPECT_EQ(Get("large"), BigValue(1));
  EXPECT_GE(store_->GetStats().vlog_dereferences, 1u);
}

TEST_F(VlogStoreTest, NoVlogTrafficWhenAllValuesSmall) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), "small").ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  EXPECT_EQ(store_->GetStats().vlog_appended_bytes, 0u);
  EXPECT_EQ(store_->GetStats().vlog_files, 0u);
}

// A flush writes its large values in key order, whatever order they were
// written in, so the rows of one key range lie together in its vlog files.
TEST_F(VlogStoreTest, FlushWritesValuesInKeyOrder) {
  options_.vlog_file_size = 8 * 1024;
  options_.write_buffer_size = 1024 * 1024;  // one flush
  Reopen();
  std::vector<int> order(300);
  for (int i = 0; i < 300; ++i) order[i] = i;
  Random rng(7);
  for (int i = 299; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(static_cast<uint32_t>(i + 1))]);
  }
  std::map<std::string, std::string> model;
  for (int i : order) {
    const std::string value = (i % 5 == 0) ? "small" : BigValue(i);
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), value).ok());
    model[Key(i)] = value;
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  ASSERT_GT(store_->GetStats().vlog_files, 2u);

  auto listing = env_->ListDir("/db");
  ASSERT_TRUE(listing.ok());
  std::vector<uint64_t> numbers;
  for (const auto& name : listing.ValueOrDie()) {
    if (name.find(".vlog") != std::string::npos) {
      numbers.push_back(std::stoull(name.substr(0, name.find('.'))));
    }
  }
  std::sort(numbers.begin(), numbers.end());
  std::vector<std::string> keys;
  for (uint64_t number : numbers) {
    std::string contents;
    ASSERT_TRUE(
        env_->ReadFileToString(vlog::VlogFileName("/db", number), &contents)
            .ok());
    Slice input(contents);
    while (!input.empty()) {
      Slice key, value;
      uint32_t size = 0;
      ASSERT_TRUE(vlog::ParseRecord(&input, &key, &value, &size).ok());
      EXPECT_EQ(value, Slice(model[key.ToString()]));
      keys.push_back(key.ToString());
    }
  }
  std::vector<std::string> expected;
  for (const auto& [key, value] : model) {
    if (value != "small") expected.push_back(key);
  }
  EXPECT_EQ(keys, expected);
}

// The last write has the store's newest sequence, so a Get or a Seek reads
// at exactly its own sequence. Once the flush has stored its entry as a
// pointer, the lookup key must still sort at or before it.
TEST_F(VlogStoreTest, GetAndSeekFindSeparatedEntryAtItsOwnSequence) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), BigValue(i)).ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  ASSERT_GT(store_->GetStats().vlog_files, 0u);

  EXPECT_EQ(Get(Key(2)), BigValue(2));
  auto iter = store_->NewIterator(ReadOptions());
  iter->Seek(Key(2));
  ASSERT_TRUE(iter->Valid()) << iter->status().ToString();
  EXPECT_EQ(iter->key(), Slice(Key(2)));
  EXPECT_EQ(iter->value(), Slice(BigValue(2)));
  iter.reset();

  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(store_->Scan(ReadOptions(), Key(2), "", 0, &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].second, BigValue(2));
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
  ASSERT_TRUE(store_->FlushMemTable().ok());
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", BigValue(2)).ok());
  EXPECT_EQ(Get("k"), BigValue(2));
  ASSERT_TRUE(store_->FlushMemTable().ok());
  EXPECT_EQ(Get("k"), BigValue(2));

  ASSERT_TRUE(store_->Delete(WriteOptions(), "k").ok());
  EXPECT_EQ(Get("k"), "NOT_FOUND");
  ASSERT_TRUE(store_->FlushMemTable().ok());
  EXPECT_EQ(Get("k"), "NOT_FOUND");

  // Big -> small transition: the newest version is inline again.
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", BigValue(3)).ok());
  ASSERT_TRUE(store_->FlushMemTable().ok());
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", "small").ok());
  ASSERT_TRUE(store_->FlushMemTable().ok());
  EXPECT_EQ(Get("k"), "small");
  ASSERT_TRUE(store_->CompactAll().ok());
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
  options_.write_buffer_size = 1024 * 1024;  // one flush writes them all
  Reopen();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), BigValue(i)).ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  auto stats = store_->GetStats();
  EXPECT_EQ(stats.memtable_flushes, 1u);
  EXPECT_GT(stats.vlog_files, 2u) << "expected several rolled vlog files";
  // A file is finished at the first record that reaches the limit.
  EXPECT_LE(stats.vlog_appended_bytes,
            stats.vlog_files * (options_.vlog_file_size + 512));
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(Get(Key(i)), BigValue(i)) << Key(i);
  }
  Reopen();
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(Get(Key(i)), BigValue(i)) << Key(i);
  }
}

TEST_F(VlogStoreTest, WalReplayRestoresSeparatedValues) {
  // No flush: everything lives in WAL + vlog only.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store_->Put(WriteOptions(), Key(i), BigValue(i)).ok());
  }
  Reopen();
  // Recovery flushes the replayed memtable, which separates the values.
  EXPECT_GT(store_->GetStats().vlog_files, 0u);
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
