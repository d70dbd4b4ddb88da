#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/kvstore.h"

namespace iotdb {
namespace storage {
namespace {

// Crash-recovery property for flush-time key-value separation: a crash
// anywhere in a flush — while its vlog files are synced, after they are
// but before the table is, or before the manifest write that installs
// both — loses no synced write and serves no garbage. Every key reads as
// NotFound or a committed value, and after reopen no file the crashed
// flush wrote survives outside the live set.
class VlogCrashTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  static std::string Value(int i, int version) {
    std::string v = "v" + std::to_string(version) + ":" + Key(i) + ":";
    v.append(180, static_cast<char>('a' + version % 26));
    return v;
  }
};

TEST_P(VlogCrashTest, TornVlogTailNeverServesGarbage) {
  const uint64_t seed = GetParam();
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get(), seed);
  fenv.SetTornTailProbability(1.0);

  Options options;
  options.env = &fenv;
  options.write_buffer_size = 1024 * 1024;  // flushes only when asked
  options.min_value_size = 64;
  options.vlog_file_size = 4 * 1024;  // one flush writes several vlog files

  const int kSynced = 40;
  const int kTotal = 120;
  // allowed[key] = set of values a post-crash read may legitimately return;
  // "" stands for NotFound.
  std::map<std::string, std::set<std::string>> allowed;
  {
    auto result = KVStore::Open(options, "/db");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto store = std::move(result).MoveValueUnsafe();

    // Phase 1: synced writes. Durable, so NotFound is not acceptable.
    WriteOptions synced;
    synced.sync = true;
    for (int i = 0; i < kSynced; ++i) {
      ASSERT_TRUE(store->Put(synced, Key(i), Value(i, 1)).ok());
      allowed[Key(i)] = {Value(i, 1)};
    }

    // Phase 2: unsynced writes — fresh keys and overwrites of synced ones.
    // Any prefix of them may survive the crash.
    for (int i = 0; i < kTotal; ++i) {
      ASSERT_TRUE(store->Put(WriteOptions(), Key(i), Value(i, 2)).ok());
      allowed[Key(i)].insert(Value(i, 2));
      if (i >= kSynced) allowed[Key(i)].insert("");  // may be lost entirely
    }

    // The flush fails at a point the seed picks, and the process dies
    // there: 0 = a vlog file's sync (each fails with probability 1/2, so
    // the seed also picks which file, and now and then none fails),
    // 1 = the table's sync, after every vlog file is synced, 2 = the
    // manifest write, after the table is synced too.
    FaultRates rates;
    FileClass target = FileClass::kVlog;
    switch (seed % 3) {
      case 0:
        rates.sync_error = 0.5;
        break;
      case 1:
        target = FileClass::kSSTable;
        rates.sync_error = 1.0;
        break;
      default:
        target = FileClass::kManifest;
        rates.append_error = 1.0;
        break;
    }
    fenv.SetRates(target, rates);
    fenv.SetInjectionEnabled(true);
    // FlushMemTable returns once the memtable is out, which may be before
    // the manifest write: wait for the whole flush.
    store->FlushMemTable().ok();
    store->WaitForBackgroundWork();
    fenv.SetInjectionEnabled(false);
    if (seed % 3 != 0) {
      EXPECT_FALSE(store->Put(WriteOptions(), "probe", "x").ok())
          << "the injected fault should have failed the flush";
    }

    fenv.MarkCrashed("/db");
    store.reset();
    ASSERT_TRUE(fenv.Crash("/db").ok());
    fenv.ClearCrashed("/db");
  }
  EXPECT_GT(fenv.counters().crashes, 0u);

  auto result = KVStore::Open(options, "/db");
  ASSERT_TRUE(result.ok()) << "recovery failed: "
                           << result.status().ToString();
  auto store = std::move(result).MoveValueUnsafe();

  for (int i = 0; i < kTotal; ++i) {
    auto r = store->Get(ReadOptions(), Key(i));
    std::string got;
    if (r.ok()) {
      got = r.ValueOrDie();
    } else {
      ASSERT_TRUE(r.status().IsNotFound())
          << Key(i) << ": post-crash read must be a value or NotFound, got "
          << r.status().ToString();
      got = "";
    }
    EXPECT_TRUE(allowed[Key(i)].count(got))
        << Key(i) << " returned a value that was never committed: \""
        << got.substr(0, 32) << "...\" (seed " << seed << ")";
  }

  // No orphan: every table and vlog file on disk is live. The crashed
  // flush's synced outputs, which no manifest names, are gone.
  auto listing = fenv.ListDir("/db");
  ASSERT_TRUE(listing.ok());
  for (const std::string& name : listing.ValueOrDie()) {
    const std::string path = "/db/" + name;
    if (ClassifyFile(path) == FileClass::kVlog) {
      EXPECT_TRUE(store->IsLiveVlogFile(path)) << "orphan " << path;
    } else if (ClassifyFile(path) == FileClass::kSSTable) {
      EXPECT_TRUE(store->IsLiveTableFile(path)) << "orphan " << path;
    }
  }

  // The recovered store is internally consistent: a full scrub of tables,
  // WAL tail and vlog files finds nothing to quarantine.
  ScrubReport report;
  ASSERT_TRUE(store->VerifyIntegrity(&report).ok());
  EXPECT_EQ(report.corrupt_files, 0u);
  EXPECT_EQ(report.quarantined_files, 0u);

  // And it keeps working as a store, flushes included.
  for (int i = 0; i < kTotal; ++i) {
    ASSERT_TRUE(store->Put(WriteOptions(), Key(i), Value(i, 3)).ok());
  }
  ASSERT_TRUE(store->FlushMemTable().ok());
  for (int i = 0; i < kTotal; ++i) {
    auto r = store->Get(ReadOptions(), Key(i));
    ASSERT_TRUE(r.ok()) << Key(i);
    EXPECT_EQ(r.ValueOrDie(), Value(i, 3));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VlogCrashTest,
                         ::testing::Values(1, 7, 21, 42, 1234, 9999, 31337,
                                           20260808));

// A vlog file cut short behind the store's back: a read of a lost record
// fails closed with Corruption (never garbage, never a NotFound that would
// pass for an absent key) and quarantines the file, so every later read of
// it fails too and the cluster fails it over to a healthy replica.
TEST(VlogTruncationTest, ReadsOfTruncatedVlogFailClosed) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options.min_value_size = 64;

  const int kN = 60;
  auto key = [](int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return std::string(buf);
  };
  auto value = [](int i) {
    std::string v = "val" + std::to_string(i) + ":";
    v.append(200, 'x');
    return v;
  };
  {
    auto result = KVStore::Open(options, "/db");
    ASSERT_TRUE(result.ok());
    auto store = std::move(result).MoveValueUnsafe();
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(store->Put(WriteOptions(), key(i), value(i)).ok());
    }
    ASSERT_TRUE(store->FlushMemTable().ok());
    ASSERT_EQ(store->GetStats().vlog_files, 1u);
  }

  auto listing = env->ListDir("/db");
  ASSERT_TRUE(listing.ok());
  std::string vlog_path;
  for (const auto& name : listing.ValueOrDie()) {
    if (ClassifyFile(name) == FileClass::kVlog) vlog_path = "/db/" + name;
  }
  ASSERT_FALSE(vlog_path.empty());
  std::string contents;
  ASSERT_TRUE(env->ReadFileToString(vlog_path, &contents).ok());
  ASSERT_TRUE(env->RemoveFile(vlog_path).ok());
  ASSERT_TRUE(env->WriteStringToFile(
                     vlog_path, Slice(contents.data(), contents.size() / 2))
                  .ok());

  auto result = KVStore::Open(options, "/db");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto store = std::move(result).MoveValueUnsafe();
  int found = 0;
  int failed = 0;
  for (int i = 0; i < kN; ++i) {
    auto r = store->Get(ReadOptions(), key(i));
    if (r.ok()) {
      EXPECT_EQ(r.ValueOrDie(), value(i)) << key(i);
      EXPECT_EQ(failed, 0) << key(i) << ": the flush wrote the file in key "
                                        "order, so survivors form a prefix";
      ++found;
    } else {
      EXPECT_FALSE(r.status().IsNotFound()) << r.status().ToString();
      if (failed == 0) {
        EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
      }
      ++failed;
    }
  }
  EXPECT_GT(found, 0);
  EXPECT_GT(failed, 0);
  EXPECT_FALSE(store->IsLiveVlogFile(vlog_path));
  EXPECT_EQ(store->GetStats().quarantined_files, 1u);
}

}  // namespace
}  // namespace storage
}  // namespace iotdb
