// Compaction-filter and retention tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "iot/kvp.h"
#include "iot/retention.h"
#include "storage/compaction_filter.h"
#include "storage/env.h"
#include "storage/kvstore.h"

namespace iotdb {
namespace storage {
namespace {

/// Drops every entry whose value starts with "drop".
class PrefixDropFilter final : public CompactionFilter {
 public:
  bool ShouldDrop(const Slice&, const Slice& value) const override {
    return value.starts_with("drop");
  }
  const char* Name() const override { return "test.PrefixDrop"; }
};

class CompactionFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.env = env_.get();
    options_.write_buffer_size = 32 * 1024;
    options_.compaction_filter = &filter_;
    store_ = KVStore::Open(options_, "/cf").MoveValueUnsafe();
  }

  PrefixDropFilter filter_;
  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<KVStore> store_;
};

TEST_F(CompactionFilterTest, DropsMatchingEntriesAtCompaction) {
  for (int i = 0; i < 1000; ++i) {
    std::string key = "key" + std::to_string(i);
    std::string value = (i % 3 == 0) ? "drop_me" : "keep_me";
    ASSERT_TRUE(store_->Put(WriteOptions(), key, value).ok());
  }
  // Before compaction everything is visible.
  EXPECT_EQ(store_->CountKeysSlow(), 1000u);

  ASSERT_TRUE(store_->CompactAll().ok());

  // 334 keys (i % 3 == 0) aged out.
  EXPECT_EQ(store_->CountKeysSlow(), 666u);
  EXPECT_TRUE(store_->Get(ReadOptions(), "key0").status().IsNotFound());
  EXPECT_EQ(store_->Get(ReadOptions(), "key1").ValueOrDie(), "keep_me");
}

TEST_F(CompactionFilterTest, NewestVersionDecides) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", "drop_old").ok());
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", "keep_new").ok());
  ASSERT_TRUE(store_->CompactAll().ok());
  // The newest version says keep, so the key survives.
  EXPECT_EQ(store_->Get(ReadOptions(), "k").ValueOrDie(), "keep_new");
}

TEST_F(CompactionFilterTest, DroppedKeysStayDroppedAfterReopen) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "gone", "drop_me").ok());
  ASSERT_TRUE(store_->Put(WriteOptions(), "stays", "keep_me").ok());
  ASSERT_TRUE(store_->CompactAll().ok());
  store_.reset();
  store_ = KVStore::Open(options_, "/cf").MoveValueUnsafe();
  EXPECT_TRUE(store_->Get(ReadOptions(), "gone").status().IsNotFound());
  EXPECT_EQ(store_->Get(ReadOptions(), "stays").ValueOrDie(), "keep_me");
}

TEST(RetentionFilterTest, DropsOnlyExpiredSensorRows) {
  ManualClock clock(10000ull * 1000000);  // t = 10,000 s
  iot::SensorDataRetentionFilter filter(3600ull * 1000000, &clock);  // 1 h

  std::string fresh =
      iot::KvpCodec::EncodeKey("sub1", "pmu_freq_000",
                               clock.NowMicros() - 1000);
  std::string stale = iot::KvpCodec::EncodeKey(
      "sub1", "pmu_freq_000", clock.NowMicros() - 2 * 3600ull * 1000000);
  EXPECT_FALSE(filter.ShouldDrop(fresh, "v"));
  EXPECT_TRUE(filter.ShouldDrop(stale, "v"));
  // Rows without a timestamp are never dropped.
  EXPECT_FALSE(filter.ShouldDrop("some_admin_key", "v"));
  // A young clock (now < retention) drops nothing.
  ManualClock young(100);
  iot::SensorDataRetentionFilter young_filter(3600ull * 1000000, &young);
  EXPECT_FALSE(young_filter.ShouldDrop(stale, "v"));
}

TEST(RetentionFilterTest, EndToEndAgeOut) {
  ManualClock clock(10000ull * 1000000);
  iot::SensorDataRetentionFilter filter(1000ull * 1000000, &clock);  // 1000s

  // Short readings stay inline; 1 KiB kvps are separated when the memtable
  // flushes, so the filter must age out pointer entries too. The aged-out
  // half is flushed on its own: once compaction drops it, no table links
  // that flush's vlog file, and the store deletes it.
  for (bool kvp_values : {false, true}) {
    SCOPED_TRACE(kvp_values ? "1 KiB kvps" : "short values");
    auto env = NewMemEnv();
    Options options;
    options.env = env.get();
    options.compaction_filter = &filter;
    auto store = KVStore::Open(options, "/ret").MoveValueUnsafe();
    auto vlog_files = [&] {
      std::vector<std::string> paths;
      const std::vector<std::string> names =
          env->ListDir("/ret").MoveValueUnsafe();
      for (const std::string& name : names) {
        if (name.ends_with(".vlog")) paths.push_back("/ret/" + name);
      }
      return paths;
    };

    // 50 readings: half older than the retention window, half inside it.
    std::vector<std::string> aged_out_files;
    for (int i = 0; i < 50; ++i) {
      uint64_t age_seconds = (i < 25) ? (2000 + i) : (10 + i);
      iot::Reading reading;
      reading.substation_key = "sub1";
      reading.sensor_key = "ltc_gas_000";
      reading.timestamp_micros = clock.NowMicros() - age_seconds * 1000000;
      reading.value = 17.5 + i;
      reading.unit = "ppm";
      const iot::Kvp kvp = iot::KvpCodec::Encode(reading, i);
      const std::string value = kvp_values ? kvp.value : "reading";
      ASSERT_TRUE(store->Put(WriteOptions(), kvp.key, value).ok());
      if (i == 24) {
        ASSERT_TRUE(store->FlushMemTable().ok());
        aged_out_files = vlog_files();
      }
    }
    ASSERT_TRUE(store->FlushMemTable().ok());
    std::vector<std::string> kept_files = vlog_files();
    std::erase_if(kept_files, [&](const std::string& path) {
      return std::find(aged_out_files.begin(), aged_out_files.end(),
                       path) != aged_out_files.end();
    });
    ASSERT_EQ(aged_out_files.size(), kvp_values ? 1u : 0u);
    ASSERT_EQ(kept_files.size(), kvp_values ? 1u : 0u);

    ASSERT_TRUE(store->CompactAll().ok());
    EXPECT_EQ(store->CountKeysSlow(), 25u);
    EXPECT_EQ(store->GetStats().vlog_files, kept_files.size());
    EXPECT_EQ(vlog_files(), kept_files);
    for (const std::string& path : kept_files) {
      EXPECT_TRUE(store->IsLiveVlogFile(path)) << path;
    }
    for (const std::string& path : aged_out_files) {
      EXPECT_FALSE(store->IsLiveVlogFile(path)) << path;
    }
  }
}

}  // namespace
}  // namespace storage
}  // namespace iotdb
