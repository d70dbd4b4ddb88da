#include "storage/fault_env.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/kvstore.h"

namespace iotdb {
namespace storage {
namespace {

TEST(ClassifyFileTest, RecognisesStoreFileClasses) {
  EXPECT_EQ(ClassifyFile("/db/00000001.log"), FileClass::kWal);
  EXPECT_EQ(ClassifyFile("/db/00000007.sst"), FileClass::kSSTable);
  EXPECT_EQ(ClassifyFile("/db/MANIFEST"), FileClass::kManifest);
  EXPECT_EQ(ClassifyFile("/db/MANIFEST.tmp"), FileClass::kManifest);
  EXPECT_EQ(ClassifyFile("/db/LOCK"), FileClass::kOther);
  EXPECT_EQ(ClassifyFile("00000001.log"), FileClass::kWal);  // bare name
}

TEST(FaultInjectionEnvTest, InjectsTargetedAppendErrors) {
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get(), /*seed=*/7);
  FaultRates rates;
  rates.append_error = 1.0;
  fenv.SetRates(FileClass::kWal, rates);

  // Only the WAL class fails; other classes pass through untouched.
  auto wal = fenv.NewWritableFile("/db/00000001.log").MoveValueUnsafe();
  EXPECT_TRUE(wal->Append("x").IsIOError());
  auto sst = fenv.NewWritableFile("/db/00000002.sst").MoveValueUnsafe();
  EXPECT_TRUE(sst->Append("x").ok());

  FaultCounters counters = fenv.counters();
  EXPECT_EQ(counters.append_errors, 1u);
  EXPECT_EQ(counters.TotalInjectedErrors(), 1u);

  // The master switch silences injection without losing the rates.
  fenv.SetInjectionEnabled(false);
  EXPECT_TRUE(wal->Append("x").ok());
  fenv.SetInjectionEnabled(true);
  EXPECT_TRUE(wal->Append("x").IsIOError());
}

TEST(FaultInjectionEnvTest, SyncAndReadErrorsAreInjected) {
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get(), /*seed=*/3);
  ASSERT_TRUE(base->WriteStringToFile("/db/5.sst", "contents").ok());
  FaultRates rates;
  rates.sync_error = 1.0;
  rates.read_error = 1.0;
  fenv.SetRates(FileClass::kSSTable, rates);

  auto file = fenv.NewWritableFile("/db/9.sst").MoveValueUnsafe();
  ASSERT_TRUE(file->Append("x").ok());
  EXPECT_TRUE(file->Sync().IsIOError());

  auto reader = fenv.NewRandomAccessFile("/db/5.sst").MoveValueUnsafe();
  Slice result;
  char scratch[16];
  EXPECT_TRUE(reader->Read(0, 4, &result, scratch).IsIOError());

  FaultCounters counters = fenv.counters();
  EXPECT_EQ(counters.sync_errors, 1u);
  EXPECT_EQ(counters.read_errors, 1u);
}

TEST(FaultInjectionEnvTest, SameSeedSameOpsSameCounters) {
  auto run = [](uint64_t seed) {
    auto base = NewMemEnv();
    FaultInjectionEnv fenv(base.get(), seed);
    FaultRates rates;
    rates.append_error = 0.3;
    rates.sync_error = 0.2;
    fenv.SetRates(FileClass::kWal, rates);
    auto file = fenv.NewWritableFile("/db/1.log").MoveValueUnsafe();
    for (int i = 0; i < 200; ++i) {
      file->Append("record").ok();
      if (i % 10 == 0) file->Sync().ok();
    }
    return fenv.counters();
  };
  FaultCounters a = run(42);
  FaultCounters b = run(42);
  FaultCounters c = run(43);
  EXPECT_GT(a.TotalInjectedErrors(), 0u);
  EXPECT_EQ(a.append_errors, b.append_errors);
  EXPECT_EQ(a.sync_errors, b.sync_errors);
  // A different seed draws a different fault sequence (with 200 ops at
  // these rates, a collision across every counter is vanishingly rare).
  EXPECT_TRUE(a.append_errors != c.append_errors ||
              a.sync_errors != c.sync_errors);
}

TEST(FaultInjectionEnvTest, CrashDropsUnsyncedTailAndNeverSyncedFiles) {
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get(), /*seed=*/11);
  fenv.SetTornTailProbability(0);  // deterministic truncation

  auto synced = fenv.NewWritableFile("/db/a.dat").MoveValueUnsafe();
  ASSERT_TRUE(synced->Append("durable").ok());
  ASSERT_TRUE(synced->Sync().ok());
  ASSERT_TRUE(synced->Append("-volatile").ok());

  auto never_synced = fenv.NewWritableFile("/db/b.dat").MoveValueUnsafe();
  ASSERT_TRUE(never_synced->Append("all lost").ok());

  // A file outside the crashed prefix is untouched.
  auto other = fenv.NewWritableFile("/elsewhere/c.dat").MoveValueUnsafe();
  ASSERT_TRUE(other->Append("untouched").ok());

  ASSERT_TRUE(fenv.Crash("/db").ok());

  std::string contents;
  ASSERT_TRUE(base->ReadFileToString("/db/a.dat", &contents).ok());
  EXPECT_EQ(contents, "durable");
  EXPECT_FALSE(base->FileExists("/db/b.dat"));
  ASSERT_TRUE(base->ReadFileToString("/elsewhere/c.dat", &contents).ok());
  EXPECT_EQ(contents, "untouched");

  FaultCounters counters = fenv.counters();
  EXPECT_EQ(counters.crashes, 1u);
  EXPECT_EQ(counters.files_truncated, 1u);
  EXPECT_EQ(counters.files_dropped, 1u);
  EXPECT_EQ(counters.bytes_dropped,
            std::string("-volatile").size() + std::string("all lost").size());
}

TEST(FaultInjectionEnvTest, TornTailKeepsPartialUnsyncedWalPrefix) {
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get(), /*seed=*/19);
  fenv.SetTornTailProbability(1.0);

  auto wal = fenv.NewWritableFile("/db/1.log").MoveValueUnsafe();
  std::string synced_part(100, 's');
  std::string unsynced_part(1000, 'u');
  ASSERT_TRUE(wal->Append(synced_part).ok());
  ASSERT_TRUE(wal->Sync().ok());
  ASSERT_TRUE(wal->Append(unsynced_part).ok());

  ASSERT_TRUE(fenv.Crash("/db").ok());

  std::string contents;
  ASSERT_TRUE(base->ReadFileToString("/db/1.log", &contents).ok());
  // The synced prefix always survives; at most a partial tail follows.
  EXPECT_GE(contents.size(), synced_part.size());
  EXPECT_LT(contents.size(), synced_part.size() + unsynced_part.size());
  EXPECT_EQ(contents.substr(0, 100), synced_part);
}

TEST(FaultInjectionEnvTest, MarkCrashedMakesOperationsFailUntilCleared) {
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get(), /*seed=*/23);
  ASSERT_TRUE(base->WriteStringToFile("/db/x", "data").ok());

  fenv.MarkCrashed("/db");
  EXPECT_TRUE(fenv.NewWritableFile("/db/y").status().IsIOError());
  EXPECT_TRUE(fenv.NewSequentialFile("/db/x").status().IsIOError());
  EXPECT_TRUE(fenv.RemoveFile("/db/x").IsIOError());
  // Other prefixes keep working while /db is "dead".
  EXPECT_TRUE(fenv.NewWritableFile("/other/z").ok());

  fenv.ClearCrashed("/db");
  EXPECT_TRUE(fenv.NewSequentialFile("/db/x").ok());
}

TEST(FaultInjectionEnvTest, RenameOntoItselfKeepsSyncState) {
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get(), /*seed=*/29);
  auto file = fenv.NewWritableFile("/db/a.dat").MoveValueUnsafe();
  ASSERT_TRUE(file->Append("never synced").ok());

  ASSERT_TRUE(fenv.RenameFile("/db/a.dat", "/db/a.dat").ok());
  ASSERT_TRUE(base->FileExists("/db/a.dat"));

  // The rename kept the file's unsynced state, so a crash still drops it.
  ASSERT_TRUE(fenv.Crash("/db").ok());
  EXPECT_FALSE(base->FileExists("/db/a.dat"));
  EXPECT_EQ(fenv.counters().files_dropped, 1u);
}

// Abrupt process death: background threads lose file access first, the
// store object dies, then all unsynced bytes vanish (possibly leaving a
// torn WAL tail). `store` comes back reopened on the surviving files.
void CrashAndReopen(FaultInjectionEnv* fenv, const Options& options,
                    std::unique_ptr<KVStore>* store) {
  fenv->MarkCrashed("/db");
  store->reset();
  ASSERT_TRUE(fenv->Crash("/db").ok());
  fenv->ClearCrashed("/db");
  auto reopened = KVStore::Open(options, "/db");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  *store = std::move(reopened).MoveValueUnsafe();
}

Options CrashOptions(FaultInjectionEnv* fenv) {
  Options options;
  options.env = fenv;
  // Large buffer: no memtable switch, so the whole history sits in one
  // WAL and the sync point cleanly splits durable from volatile writes.
  options.write_buffer_size = 8 * 1024 * 1024;
  options.wal_sync = false;
  return options;
}

// One writer issues up to 30 batches of `rows` rows — through Write(), or
// through PutMany() when `put_many` — with one of them written sync=true.
// After the crash every batch must be all-or-nothing, every batch up to
// the synced one must survive, and survivors must be a prefix of write
// order.
void CheckBatchesSurviveCrash(int iteration, int rows, bool put_many) {
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get(), /*seed=*/1000 + iteration);
  const Options options = CrashOptions(&fenv);
  auto store = KVStore::Open(options, "/db").MoveValueUnsafe();

  Random rnd(2000 + iteration);
  const int num_batches = 1 + static_cast<int>(rnd.Uniform(30));
  // Batches [0, synced_batches) are covered by the last synced write.
  const int synced_batches = static_cast<int>(rnd.Uniform(num_batches + 1));

  auto key = [iteration](int batch, int row) {
    return "it" + std::to_string(iteration) + "-b" + std::to_string(batch) +
           "-r" + std::to_string(row);
  };
  for (int b = 0; b < num_batches; ++b) {
    WriteOptions write_options;
    write_options.sync = (b == synced_batches - 1);
    const std::string value = "v" + std::to_string(b);
    if (put_many) {
      std::vector<std::string> keys;
      for (int r = 0; r < rows; ++r) keys.push_back(key(b, r));
      std::vector<KvEntry> entries;
      for (const std::string& k : keys) entries.push_back({k, value});
      ASSERT_TRUE(store->PutMany(write_options, entries).ok());
    } else {
      WriteBatch batch;
      for (int r = 0; r < rows; ++r) batch.Put(key(b, r), value);
      ASSERT_TRUE(store->Write(write_options, &batch).ok());
    }
  }

  ASSERT_NO_FATAL_FAILURE(CrashAndReopen(&fenv, options, &store));

  bool prefix_intact = true;
  for (int b = 0; b < num_batches; ++b) {
    int present = 0;
    for (int r = 0; r < rows; ++r) {
      auto result = store->Get(ReadOptions(), key(b, r));
      if (result.ok()) {
        ASSERT_EQ(result.ValueOrDie(), "v" + std::to_string(b));
        present++;
      }
    }
    // Batches are atomic: all rows or none.
    ASSERT_TRUE(present == 0 || present == rows)
        << "batch " << b << " recovered partially (" << present << "/"
        << rows << " rows)";
    if (b < synced_batches) {
      ASSERT_EQ(present, rows) << "synced batch " << b << " lost in crash";
    }
    // Recovered batches form a prefix of write order.
    if (present == 0) {
      prefix_intact = false;
    } else {
      ASSERT_TRUE(prefix_intact)
          << "batch " << b << " survived after a missing batch";
    }
  }
}

// Sync is a barrier, not a per-write flag: writer A streams unsynced puts
// while writer B issues one sync=true put once A has a random number of
// puts acknowledged. Every put A had acknowledged before B issued its sync
// write must survive the crash, and A's survivors are a prefix of A's
// write order.
void CheckSyncIsBarrierAcrossWriters(int iteration) {
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get(), /*seed=*/3000 + iteration);
  const Options options = CrashOptions(&fenv);
  auto store = KVStore::Open(options, "/db").MoveValueUnsafe();

  Random rnd(4000 + iteration);
  const int puts_a = 50 + static_cast<int>(rnd.Uniform(150));
  const int sync_after = static_cast<int>(rnd.Uniform(puts_a));
  auto key_a = [iteration](int i) {
    return "it" + std::to_string(iteration) + "-a" + std::to_string(i);
  };

  std::atomic<int> acked_a{0};
  std::atomic<bool> failed{false};
  int covered_by_sync = 0;
  std::thread writer_a([&] {
    for (int i = 0; i < puts_a; ++i) {
      if (!store->Put(WriteOptions(), key_a(i), "a").ok()) failed = true;
      acked_a.store(i + 1, std::memory_order_release);
    }
  });
  std::thread writer_b([&] {
    while (acked_a.load(std::memory_order_acquire) < sync_after) {
      std::this_thread::yield();
    }
    covered_by_sync = acked_a.load(std::memory_order_acquire);
    WriteOptions synced;
    synced.sync = true;
    if (!store->Put(synced, "b-synced", "b").ok()) failed = true;
  });
  writer_a.join();
  writer_b.join();
  ASSERT_FALSE(failed.load());

  ASSERT_NO_FATAL_FAILURE(CrashAndReopen(&fenv, options, &store));

  ASSERT_TRUE(store->Get(ReadOptions(), "b-synced").ok())
      << "synced write lost in crash";
  bool prefix_intact = true;
  for (int i = 0; i < puts_a; ++i) {
    const bool present = store->Get(ReadOptions(), key_a(i)).ok();
    if (i < covered_by_sync) {
      ASSERT_TRUE(present) << "put " << i << " of writer A was acknowledged "
                           << "before writer B's sync write and was lost ("
                           << covered_by_sync << " covered)";
    }
    if (!present) {
      prefix_intact = false;
    } else {
      ASSERT_TRUE(prefix_intact)
          << "put " << i << " of writer A survived after a missing one";
    }
  }
}

// The crash-recovery contract of the store under the fault env, checked
// over 100 randomized crash points per input: 5-row Write() batches,
// 500-row PutMany() batches, and two writers racing a sync write. Every
// write acknowledged before a sync survives, recovery never fails on a
// torn WAL tail, and recovered batches are atomic and form a prefix of
// write order.
TEST(CrashRecoveryPropertyTest, SyncedBatchesSurviveAnyCrash) {
  constexpr int kIterations = 100;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    {
      SCOPED_TRACE("5-row Write() batches");
      ASSERT_NO_FATAL_FAILURE(
          CheckBatchesSurviveCrash(iteration, 5, /*put_many=*/false));
    }
    {
      SCOPED_TRACE("500-row PutMany() batches");
      ASSERT_NO_FATAL_FAILURE(
          CheckBatchesSurviveCrash(iteration, 500, /*put_many=*/true));
    }
    {
      SCOPED_TRACE("two writers, one sync write");
      ASSERT_NO_FATAL_FAILURE(CheckSyncIsBarrierAcrossWriters(iteration));
    }
  }
}

}  // namespace
}  // namespace storage
}  // namespace iotdb
