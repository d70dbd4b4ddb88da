// Property sweeps over the on-disk formats: WAL record framing with random
// record-size mixes, block encoding with random key shapes, and table
// round trips — all parameterised over seeds.
#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "obs/snapshot.h"
#include "storage/block.h"
#include "storage/block_builder.h"
#include "storage/comparator.h"
#include "storage/env.h"
#include "storage/log_reader.h"
#include "storage/log_writer.h"

namespace iotdb {
namespace storage {
namespace {

class WalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalPropertyTest, RandomRecordMixRoundTrips) {
  Random rng(GetParam());
  auto env = NewMemEnv();

  std::vector<std::string> records;
  // Mix of sizes: empty, tiny, near block boundary, multi-block.
  for (int i = 0; i < 200; ++i) {
    size_t len;
    switch (rng.Uniform(5)) {
      case 0:
        len = 0;
        break;
      case 1:
        len = rng.Uniform(64);
        break;
      case 2:
        len = 32768 - log::kHeaderSize + rng.Uniform(16) - 8;
        break;
      case 3:
        len = rng.Uniform(100000);
        break;
      default:
        len = rng.Uniform(2048);
        break;
    }
    records.push_back(rng.RandomPrintableString(len));
  }

  {
    auto file = env->NewWritableFile("/wal").MoveValueUnsafe();
    log::Writer writer(file.get());
    for (const std::string& record : records) {
      ASSERT_TRUE(writer.AddRecord(record).ok());
    }
    ASSERT_TRUE(file->Close().ok());
  }

  auto file = env->NewSequentialFile("/wal").MoveValueUnsafe();
  log::Reader reader(file.get(), nullptr, true);
  Slice record;
  std::string scratch;
  size_t index = 0;
  while (reader.ReadRecord(&record, &scratch)) {
    ASSERT_LT(index, records.size());
    ASSERT_EQ(record.ToString(), records[index]) << "record " << index;
    ++index;
  }
  EXPECT_EQ(index, records.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

class BlockPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(BlockPropertyTest, RandomKeysRoundTripAndSeek) {
  auto [seed, restart_interval] = GetParam();
  Random rng(seed);

  // Random keys with heavy shared prefixes (stresses delta encoding).
  std::map<std::string, std::string> model;
  for (int i = 0; i < 400; ++i) {
    std::string key = "prefix" + std::to_string(rng.Uniform(10)) + "/" +
                      rng.RandomPrintableString(rng.Uniform(20) + 1);
    model[key] = rng.RandomPrintableString(rng.Uniform(60));
  }

  BlockBuilder builder(restart_interval, BytewiseComparator());
  for (const auto& [key, value] : model) builder.Add(key, value);
  Block block(builder.Finish().ToString());
  auto iter = block.NewIterator(BytewiseComparator());

  // Full forward pass.
  iter->SeekToFirst();
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(iter->Valid());
    ASSERT_EQ(iter->key().ToString(), key);
    ASSERT_EQ(iter->value().ToString(), value);
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());

  // Random seeks land on lower bounds.
  for (int i = 0; i < 100; ++i) {
    std::string target = "prefix" + std::to_string(rng.Uniform(11)) + "/" +
                         rng.RandomPrintableString(rng.Uniform(20));
    iter->Seek(target);
    auto expected = model.lower_bound(target);
    if (expected == model.end()) {
      EXPECT_FALSE(iter->Valid()) << target;
    } else {
      ASSERT_TRUE(iter->Valid()) << target;
      EXPECT_EQ(iter->key().ToString(), expected->first);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndRestarts, BlockPropertyTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(1, 4, 16, 64)));

class HistogramPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramPropertyTest, PercentilesAreMonotoneAndBounded) {
  Random rng(GetParam());
  obs::HistogramSnapshot hist;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform values spanning six decades.
    hist.Record(1 + rng.Uniform(1ull << rng.Uniform(20)));
  }
  double previous = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    double value = hist.Percentile(p);
    EXPECT_GE(value, previous) << "p" << p;
    EXPECT_GE(value, static_cast<double>(hist.min));
    EXPECT_LE(value, static_cast<double>(hist.max));
    previous = value;
  }
  // Percentiles clamp to the observed [min, max]: the median of a known
  // constant stream is near-exact.
  obs::HistogramSnapshot constant;
  for (int i = 0; i < 100; ++i) constant.Record(777);
  EXPECT_NEAR(constant.Percentile(50), 777, 777 * 0.06);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramPropertyTest,
                         ::testing::Values(5, 6, 7, 8));

}  // namespace
}  // namespace storage
}  // namespace iotdb
