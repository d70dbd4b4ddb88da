#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/kvstore.h"

namespace iotdb {
namespace storage {
namespace {

// Crash-recovery property for the WAL: a crash mid-stream tears the
// unsynced tail of the log at a random point. Replay must reconstruct
// exactly a *prefix* of the acked writes:
//
//  * every synced (acked-durable) write survives with its exact value;
//  * the surviving unsynced writes are a contiguous prefix of the order
//    they were issued (a WAL is append-only, so a torn tail can only drop
//    a suffix);
//  * no key ever reads as garbage — only a committed value or NotFound.
//
// The suite and case names date from the partitioned WAL, when each write
// shard replayed its own prefix. The store now has one write queue and
// one WAL, so the whole unsynced stream must come back as one prefix.
//
// One hundred seeds drive the mix of synced/unsynced counts, value sizes
// and crash torn-tail randomness.
class ShardRecoveryPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static std::string SyncedKey(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "sync%06d", i);
    return buf;
  }
  static std::string UnsyncedKey(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "unsy%06d", i);
    return buf;
  }
  static std::string Value(const std::string& key, uint64_t seed,
                           size_t len) {
    std::string v = key + ":" + std::to_string(seed) + ":";
    v.append(len, static_cast<char>('a' + seed % 26));
    return v;
  }
};

TEST_P(ShardRecoveryPropertyTest, ReplayRestoresAckedPrefixPerShard) {
  const uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get(), seed);
  fenv.SetTornTailProbability(1.0);

  Options options;
  options.env = &fenv;
  options.write_buffer_size = 1 << 20;  // keep everything in the WAL

  const int kSynced = 20 + static_cast<int>(rng() % 40);
  const int kUnsynced = 60 + static_cast<int>(rng() % 120);
  const size_t value_len = 32 + static_cast<size_t>(rng() % 160);

  std::map<std::string, std::string> values;
  {
    auto result = KVStore::Open(options, "/db");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto store = std::move(result).MoveValueUnsafe();

    WriteOptions synced;
    synced.sync = true;
    for (int i = 0; i < kSynced; ++i) {
      std::string key = SyncedKey(i);
      values[key] = Value(key, seed, value_len);
      ASSERT_TRUE(store->Put(synced, key, values[key]).ok());
    }

    // Unsynced writes to fresh keys, issued in index order.
    for (int i = 0; i < kUnsynced; ++i) {
      std::string key = UnsyncedKey(i);
      values[key] = Value(key, seed, value_len);
      ASSERT_TRUE(store->Put(WriteOptions(), key, values[key]).ok());
    }

    // Abrupt death mid-stream: the WAL loses a random chunk of its
    // unsynced tail (torn final record included).
    fenv.MarkCrashed("/db");
    store.reset();
    ASSERT_TRUE(fenv.Crash("/db").ok());
    fenv.ClearCrashed("/db");
  }

  auto result = KVStore::Open(options, "/db");
  ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                           << result.status().ToString();
  auto store = std::move(result).MoveValueUnsafe();

  // Synced writes are acked durable: exact survival, no exceptions.
  for (int i = 0; i < kSynced; ++i) {
    auto r = store->Get(ReadOptions(), SyncedKey(i));
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": synced key lost: "
                        << SyncedKey(i);
    EXPECT_EQ(r.ValueOrDie(), values[SyncedKey(i)]);
  }

  // Unsynced writes: survivors must be a contiguous prefix of the issue
  // order, each with its exact committed value.
  bool in_prefix = true;
  for (int i = 0; i < kUnsynced; ++i) {
    const std::string key = UnsyncedKey(i);
    auto r = store->Get(ReadOptions(), key);
    if (r.ok()) {
      ASSERT_TRUE(in_prefix)
          << "seed " << seed << ": key " << key
          << " survived after an earlier write was lost — replay is not a "
             "sequence-order prefix";
      EXPECT_EQ(r.ValueOrDie(), values[key]) << "seed " << seed;
    } else {
      ASSERT_TRUE(r.status().IsNotFound())
          << "seed " << seed << ": " << r.status().ToString();
      in_prefix = false;
    }
  }

  // The recovered store is healthy: clean integrity walk, still writable.
  ScrubReport report;
  ASSERT_TRUE(store->VerifyIntegrity(&report).ok());
  EXPECT_EQ(report.corrupt_files, 0u) << "seed " << seed;
  EXPECT_EQ(report.quarantined_files, 0u) << "seed " << seed;
  ASSERT_TRUE(store->Put(WriteOptions(), "post-crash", "alive").ok());
  EXPECT_EQ(store->Get(ReadOptions(), "post-crash").ValueOrDie(), "alive");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardRecoveryPropertyTest,
                         ::testing::Range<uint64_t>(1, 101));

}  // namespace
}  // namespace storage
}  // namespace iotdb
