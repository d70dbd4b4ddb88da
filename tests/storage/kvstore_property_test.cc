// Property-based testing of the KVStore against an in-memory reference
// model: random interleavings of puts, deletes, batched writes, flushes,
// compactions, and reopen cycles must keep every read path (Get, full
// scan, bounded Scan) consistent with a std::map.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/row_sink.h"
#include "storage/env.h"
#include "storage/kvstore.h"

namespace iotdb {
namespace storage {
namespace {

class KVStorePropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.env = env_.get();
    options_.write_buffer_size = 16 * 1024;
    options_.block_size = 512;
    options_.l0_compaction_trigger = 3;
    // Values of 64 bytes and more (up to 120) separate at flush, so the
    // checks cover pointer entries and their heads too.
    options_.min_value_size = 64;
    Open();
  }

  void Open() {
    store_ = KVStore::Open(options_, "/prop").MoveValueUnsafe();
  }

  void Reopen() {
    store_.reset();
    Open();
  }

  std::string RandomKey(Random* rng) {
    // A small keyspace ensures frequent overwrites and deletes.
    return "key" + std::to_string(rng->Uniform(200));
  }

  // A Scan bound: open (empty), before or after every key, a key of the
  // keyspace, or a key just after one of them.
  std::string RandomBound(Random* rng) {
    switch (rng->Uniform(6)) {
      case 0:
        return "";
      case 1:
        return "kex";
      case 2:
        return "kez";
      case 3:
        return RandomKey(rng) + "!";
      default:
        return RandomKey(rng);
    }
  }

  void CheckEverythingMatches(const std::map<std::string, std::string>& model) {
    // Point reads.
    for (const auto& [key, value] : model) {
      auto r = store_->Get(ReadOptions(), key);
      ASSERT_TRUE(r.ok()) << key << ": " << r.status().ToString();
      ASSERT_EQ(r.ValueOrDie(), value) << key;
    }
    // Forward scan over everything.
    auto iter = store_->NewIterator(ReadOptions());
    auto expected = model.begin();
    for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++expected) {
      ASSERT_NE(expected, model.end()) << "extra key " << iter->key()
                                             .ToString();
      ASSERT_EQ(iter->key().ToString(), expected->first);
      ASSERT_EQ(iter->value().ToString(), expected->second);
    }
    ASSERT_EQ(expected, model.end()) << "iterator ended early";
    ASSERT_TRUE(iter->status().ok());

    // Bounded scans: the model's [lower_bound(start), lower_bound(end))
    // slice, capped at `limit` rows (0 = no cap). Equal and inverted bounds
    // select nothing. Some scans append to rows the caller already holds;
    // those stay as they were and do not count against `limit`. Every
    // second scan goes to a sink that takes each head it is offered; a
    // head must be the model value's first min(16, size) bytes.
    using Rows = std::vector<std::pair<std::string, std::string>>;
    const size_t kLimits[] = {0, 1, 7};
    for (int i = 0; i < 50; ++i) {
      const std::string start = RandomBound(&bounds_rng_);
      const std::string end =
          bounds_rng_.OneIn(8) ? start : RandomBound(&bounds_rng_);
      const size_t limit = kLimits[bounds_rng_.Uniform(3)];
      const size_t held = bounds_rng_.OneIn(2) ? bounds_rng_.Uniform(9) : 0;
      const Rows sentinels(held, {"sentinel", "row"});
      Rows rows = sentinels;
      HeadTakingSink heads(&rows);
      if (i % 2 == 0) {
        ASSERT_TRUE(
            store_->Scan(ReadOptions(), start, end, limit, &rows).ok());
      } else {
        ASSERT_TRUE(store_->Scan(start, end, limit, &heads).ok());
      }
      ASSERT_GE(rows.size(), held);
      ASSERT_EQ(Rows(rows.begin(), rows.begin() + held), sentinels);
      rows.erase(rows.begin(), rows.begin() + held);
      Rows want;
      for (auto it = model.lower_bound(start);
           it != model.end() && (end.empty() || it->first < end) &&
           (limit == 0 || want.size() < limit);
           ++it) {
        want.emplace_back(it->first, heads.TookHead(it->first)
                                         ? it->second.substr(0, 16)
                                         : it->second);
      }
      ASSERT_EQ(rows, want) << "[" << start << ", " << end << ") limit "
                            << limit << " after " << held << " held rows"
                            << (i % 2 == 0 ? "" : ", heads taken");
      heads_taken_ += heads.heads();
    }
  }

  // Collects whole rows like VectorRowSink, and takes every head it is
  // offered in the value's place, noting which keys arrived as heads.
  class HeadTakingSink final : public RowSink {
   public:
    explicit HeadTakingSink(std::vector<std::pair<std::string, std::string>>*
                                out)
        : rows_(out) {}

    void Add(const Slice& key, const Slice& value) override {
      rows_.Add(key, value);
    }
    bool AddHead(const Slice& key, const Slice& head) override {
      rows_.Add(key, head);
      head_keys_.insert(key.ToString());
      return true;
    }
    void Clear() override {
      rows_.Clear();
      head_keys_.clear();
    }
    bool TookHead(const std::string& key) const {
      return head_keys_.count(key) > 0;
    }
    size_t heads() const { return head_keys_.size(); }

   private:
    VectorRowSink rows_;
    std::set<std::string> head_keys_;
  };

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<KVStore> store_;
  // Apart from the op stream's generator, so the checks leave the op
  // sequence of each seed unchanged.
  Random bounds_rng_{GetParam() + 1};
  size_t heads_taken_ = 0;  // rows bounded scans received as heads
};

TEST_P(KVStorePropertyTest, MatchesReferenceModel) {
  Random rng(GetParam());
  std::map<std::string, std::string> model;

  const int kSteps = 1500;
  for (int step = 0; step < kSteps; ++step) {
    int op = static_cast<int>(rng.Uniform(100));
    if (op < 55) {
      std::string key = RandomKey(&rng);
      std::string value = rng.RandomPrintableString(rng.Uniform(120) + 1);
      ASSERT_TRUE(store_->Put(WriteOptions(), key, value).ok());
      model[key] = value;
    } else if (op < 70) {
      std::string key = RandomKey(&rng);
      ASSERT_TRUE(store_->Delete(WriteOptions(), key).ok());
      model.erase(key);
    } else if (op < 85) {
      WriteBatch batch;
      for (int i = 0; i < 10; ++i) {
        std::string key = RandomKey(&rng);
        if (rng.OneIn(4)) {
          batch.Delete(key);
          model.erase(key);
        } else {
          std::string value = rng.RandomPrintableString(30);
          batch.Put(key, value);
          model[key] = value;
        }
      }
      ASSERT_TRUE(store_->Write(WriteOptions(), &batch).ok());
    } else if (op < 92) {
      ASSERT_TRUE(store_->FlushMemTable().ok());
    } else if (op < 97) {
      store_->WaitForBackgroundWork();
    } else if (op < 99) {
      ASSERT_TRUE(store_->CompactAll().ok());
    } else {
      Reopen();
    }

    if (step % 300 == 299) CheckEverythingMatches(model);
  }
  CheckEverythingMatches(model);

  // Final durability check: everything survives a reopen.
  Reopen();
  CheckEverythingMatches(model);
  EXPECT_GT(heads_taken_, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KVStorePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 101, 202, 303));

}  // namespace
}  // namespace storage
}  // namespace iotdb
