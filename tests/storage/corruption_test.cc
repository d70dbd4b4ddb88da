// End-to-end corruption resilience at the storage layer: bit-rot
// injection, full-file integrity verification, quarantine, per-read block
// verification, corruption status context, WAL recovery drop accounting,
// and a byte-flip fuzz over a whole SSTable.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/corruption_reporter.h"
#include "storage/dbformat.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/kvstore.h"
#include "storage/table.h"
#include "storage/table_builder.h"

namespace iotdb {
namespace storage {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// --- Bit-rot injection ------------------------------------------------------

TEST(BitRotTest, CorruptFileFlipsExactlyTheRequestedBits) {
  auto env = NewMemEnv();
  FaultInjectionEnv fenv(env.get(), /*seed=*/42);
  const std::string pristine(4096, 'x');
  ASSERT_TRUE(fenv.WriteStringToFile("/data/7.sst", pristine).ok());

  ASSERT_TRUE(fenv.CorruptFile("/data/7.sst", 16).ok());

  std::string damaged;
  ASSERT_TRUE(fenv.ReadFileToString("/data/7.sst", &damaged).ok());
  ASSERT_EQ(damaged.size(), pristine.size());  // bit rot keeps the size
  int bit_diff = 0;
  for (size_t i = 0; i < damaged.size(); ++i) {
    unsigned char x = static_cast<unsigned char>(damaged[i]) ^
                      static_cast<unsigned char>(pristine[i]);
    while (x != 0) {
      bit_diff += x & 1;
      x >>= 1;
    }
  }
  EXPECT_EQ(bit_diff, 16);
  FaultCounters counters = fenv.counters();
  EXPECT_EQ(counters.files_corrupted, 1u);
  EXPECT_EQ(counters.bits_flipped, 16u);
}

TEST(BitRotTest, SameSeedSameDamage) {
  std::string first, second;
  for (std::string* out : {&first, &second}) {
    auto env = NewMemEnv();
    FaultInjectionEnv fenv(env.get(), /*seed=*/99);
    ASSERT_TRUE(fenv.WriteStringToFile("/f.sst", std::string(1024, 0)).ok());
    ASSERT_TRUE(fenv.CorruptFile("/f.sst", 8).ok());
    ASSERT_TRUE(fenv.ReadFileToString("/f.sst", out).ok());
  }
  EXPECT_EQ(first, second);
}

TEST(BitRotTest, CorruptRandomFileHonoursFileClass) {
  auto env = NewMemEnv();
  FaultInjectionEnv fenv(env.get(), /*seed=*/3);
  ASSERT_TRUE(fenv.WriteStringToFile("/db/4.log", std::string(512, 0)).ok());
  ASSERT_TRUE(fenv.WriteStringToFile("/db/5.sst", std::string(512, 0)).ok());
  ASSERT_TRUE(fenv.WriteStringToFile("/db/MANIFEST", "m").ok());

  auto victim = fenv.CorruptRandomFile("/db", FileClass::kSSTable, 4);
  ASSERT_TRUE(victim.ok()) << victim.status().ToString();
  EXPECT_EQ(victim.ValueOrDie(), "/db/5.sst");

  auto wal = fenv.CorruptRandomFile("/db", FileClass::kWal, 4);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal.ValueOrDie(), "/db/4.log");

  auto none = fenv.CorruptRandomFile("/empty", FileClass::kSSTable, 4);
  EXPECT_TRUE(none.status().IsNotFound());
}

TEST(BitRotTest, CorruptRandomFileSkipsIneligibleFiles) {
  auto env = NewMemEnv();
  FaultInjectionEnv fenv(env.get(), /*seed=*/3);
  for (const char* name : {"/db/5.sst", "/db/6.sst", "/db/7.sst"}) {
    ASSERT_TRUE(fenv.WriteStringToFile(name, std::string(512, 0)).ok());
  }
  auto only_six = [](const std::string& path) { return path == "/db/6.sst"; };
  for (int i = 0; i < 8; ++i) {
    auto victim = fenv.CorruptRandomFile("/db", FileClass::kSSTable, 4,
                                         only_six);
    ASSERT_TRUE(victim.ok()) << victim.status().ToString();
    EXPECT_EQ(victim.ValueOrDie(), "/db/6.sst");
  }
  auto none = fenv.CorruptRandomFile(
      "/db", FileClass::kSSTable, 4,
      [](const std::string&) { return false; });
  EXPECT_TRUE(none.status().IsNotFound());
}

// --- SSTable verification, per-read checks, status context -----------------

class TableCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    options_.env = env_.get();
    options_.comparator = &icmp_;
    options_.block_size = 512;  // many blocks
  }

  void BuildTable(int entries) {
    model_.clear();
    auto file = env_->NewWritableFile(kPath).MoveValueUnsafe();
    TableBuilder builder(options_, file.get());
    SequenceNumber seq = 1;
    for (int i = 0; i < entries; ++i) {
      char key[24];
      snprintf(key, sizeof(key), "user%06d", i);
      std::string value = "value" + std::to_string(i);
      std::string ikey;
      AppendInternalKey(&ikey, key, seq++, ValueType::kValue);
      builder.Add(ikey, value);
      model_[key] = value;
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Close().ok());
    ASSERT_TRUE(env_->ReadFileToString(kPath, &pristine_).ok());
  }

  Result<std::unique_ptr<Table>> OpenTable() {
    auto file = env_->NewRandomAccessFile(kPath).MoveValueUnsafe();
    return Table::Open(options_, std::move(file), kPath);
  }

  void FlipBit(size_t byte, int bit) {
    std::string contents = pristine_;
    contents[byte] = static_cast<char>(contents[byte] ^ (1 << bit));
    ASSERT_TRUE(env_->WriteStringToFile(kPath, contents).ok());
  }

  static constexpr const char* kPath = "/table.sst";
  InternalKeyComparator icmp_{BytewiseComparator()};
  std::unique_ptr<Env> env_;
  Options options_;
  std::map<std::string, std::string> model_;
  std::string pristine_;
};

TEST_F(TableCorruptionTest, VerifyIntegrityCoversTheWholeFile) {
  BuildTable(1500);
  auto table = OpenTable().MoveValueUnsafe();
  uint64_t bytes_checked = 0;
  ASSERT_TRUE(table->VerifyIntegrity(&bytes_checked).ok());
  // Footer + every block (with trailers) were re-read: nearly the whole
  // file. Restart arrays and trailers are inside blocks, so the only bytes
  // not in some checked region would indicate a hole in the walk.
  EXPECT_GT(bytes_checked, pristine_.size() * 9 / 10);
}

TEST_F(TableCorruptionTest, VerifyIntegrityFindsDamageAnywhere) {
  BuildTable(1500);
  // One flip in the first data block, one near the end (index region).
  for (size_t byte : {size_t{10}, pristine_.size() - 40}) {
    FlipBit(byte, 3);
    auto table = OpenTable();
    if (!table.ok()) {
      EXPECT_TRUE(table.status().IsCorruption());
      continue;  // footer/index damage is caught at open
    }
    Status s = table.ValueOrDie()->VerifyIntegrity();
    EXPECT_TRUE(s.IsCorruption()) << "byte " << byte << ": " << s.ToString();
  }
}

TEST_F(TableCorruptionTest, CorruptionStatusNamesFileAndOffset) {
  BuildTable(1500);
  FlipBit(10, 6);  // inside the first data block
  auto table = OpenTable().MoveValueUnsafe();
  Status s = table->VerifyIntegrity();
  ASSERT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find(kPath), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("offset"), std::string::npos) << s.ToString();
}

// Every read checks the blocks it reads: a corrupt block fails the first
// scan through it and every later one, and never serves its damaged rows.
TEST_F(TableCorruptionTest, CorruptBlockFailsEveryRead) {
  BuildTable(1500);
  FlipBit(10, 1);  // first data block
  auto table = OpenTable().MoveValueUnsafe();

  auto iter = table->NewIterator();
  int rows = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ASSERT_EQ(iter->value().ToString(),
              model_[ExtractUserKey(iter->key()).ToString()]);
    rows++;
  }
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
  EXPECT_LT(rows, 1500);

  // A second scan reads and checks the block again, so it fails the same
  // way instead of returning the damaged rows.
  auto iter2 = table->NewIterator();
  for (iter2->SeekToFirst(); iter2->Valid(); iter2->Next()) {
    ASSERT_EQ(iter2->value().ToString(),
              model_[ExtractUserKey(iter2->key()).ToString()]);
  }
  EXPECT_TRUE(iter2->status().IsCorruption()) << iter2->status().ToString();
}

// Byte-flip fuzz: for every byte of a small SSTable (a seeded stride under
// sanitizers, which multiply runtime), flip one bit and read everything
// back. Every outcome must be either the correct data or a clean
// Corruption/NotFound-style failure — never a crash, hang, or wrong value.
TEST_F(TableCorruptionTest, ByteFlipFuzzNeverReturnsWrongData) {
  BuildTable(300);
  const size_t size = pristine_.size();
  const size_t stride = kSanitized ? 17 : 1;
  Random rng(0xb17f11);
  for (size_t byte = 0; byte < size; byte += stride) {
    FlipBit(byte, static_cast<int>(rng.Uniform(8)));
    auto table = OpenTable();
    if (!table.ok()) continue;  // clean open failure
    auto iter = table.ValueOrDie()->NewIterator();
    size_t rows = 0;
    bool wrong = false;
    for (iter->SeekToFirst(); iter->Valid() && rows <= model_.size();
         iter->Next()) {
      auto it = model_.find(ExtractUserKey(iter->key()).ToString());
      if (it == model_.end() || iter->value().ToString() != it->second) {
        wrong = true;
        break;
      }
      rows++;
    }
    if (iter->status().ok()) {
      EXPECT_FALSE(wrong) << "byte " << byte << " returned wrong data";
      EXPECT_EQ(rows, model_.size()) << "byte " << byte << " lost rows";
    }
  }
  // Restore so TearDown leaves a consistent file behind.
  ASSERT_TRUE(env_->WriteStringToFile(kPath, pristine_).ok());
}

// --- KVStore scrub, quarantine, WAL recovery accounting ---------------------

// Overwrites one byte of `path` at `offset` with its complement (a change
// guaranteed to differ from the original).
void ComplementByte(Env* env, const std::string& path, uint64_t offset) {
  std::string contents;
  ASSERT_TRUE(env->ReadFileToString(path, &contents).ok());
  ASSERT_LT(offset, contents.size());
  char flipped = static_cast<char>(~contents[static_cast<size_t>(offset)]);
  ASSERT_TRUE(
      env->OverwriteFileRange(path, offset, Slice(&flipped, 1)).ok());
}

class RecordingReporter : public CorruptionReporter {
 public:
  void OnQuarantine(const std::string& path, const Status& cause) override {
    paths.push_back(path);
    causes.push_back(cause);
  }
  std::vector<std::string> paths;
  std::vector<Status> causes;
};

class ScrubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_env_ = NewMemEnv();
    fenv_ = std::make_unique<FaultInjectionEnv>(base_env_.get(), 7);
    options_.env = fenv_.get();
    options_.write_buffer_size = 64 * 1024;
    options_.corruption_reporter = &reporter_;
  }

  std::unique_ptr<KVStore> OpenStore() {
    auto result = KVStore::Open(options_, "/db");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).MoveValueUnsafe();
  }

  void FillAndFlush(KVStore* store, int entries) {
    for (int i = 0; i < entries; ++i) {
      ASSERT_TRUE(store
                      ->Put(WriteOptions(), "key" + std::to_string(i),
                            "value" + std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE(store->FlushMemTable().ok());
    // The quarantine tests corrupt "the" table: if a flush ever wrote
    // several, they would pick a victim at random and flake. Fail loudly.
    KVStoreStats stats = store->GetStats();
    int live_tables = 0;
    for (int level = 0; level < kNumLevels; ++level) {
      live_tables += stats.num_files[level];
    }
    ASSERT_EQ(live_tables, 1) << "fixture flush must leave one live table";
  }

  /// Path of the last SSTable listed in `dir`; empty when there is none.
  std::string TablePath(const std::string& dir) {
    const auto files = fenv_->ListDir(dir).MoveValueUnsafe();
    std::string sst;
    for (const auto& f : files) {
      if (ClassifyFile(f) == FileClass::kSSTable) sst = dir + "/" + f;
    }
    return sst;
  }

  std::unique_ptr<Env> base_env_;
  std::unique_ptr<FaultInjectionEnv> fenv_;
  Options options_;
  RecordingReporter reporter_;
};

TEST_F(ScrubTest, CleanStoreVerifiesClean) {
  auto store = OpenStore();
  ASSERT_NO_FATAL_FAILURE(FillAndFlush(store.get(), 500));
  ScrubReport report;
  ASSERT_TRUE(store->VerifyIntegrity(&report).ok());
  EXPECT_GT(report.files_checked, 0u);
  EXPECT_GT(report.bytes_checked, 0u);
  EXPECT_EQ(report.corrupt_files, 0u);
  EXPECT_EQ(report.quarantined_files, 0u);
  EXPECT_TRUE(reporter_.paths.empty());
}

TEST_F(ScrubTest, ScrubQuarantinesCorruptTableAndStoreStaysLive) {
  auto store = OpenStore();
  ASSERT_NO_FATAL_FAILURE(FillAndFlush(store.get(), 500));
  auto victim = fenv_->CorruptRandomFile("/db", FileClass::kSSTable, 32);
  ASSERT_TRUE(victim.ok()) << victim.status().ToString();

  ScrubReport report;
  ASSERT_TRUE(store->VerifyIntegrity(&report).ok());
  EXPECT_EQ(report.corrupt_files, 1u);
  EXPECT_EQ(report.quarantined_files, 1u);
  ASSERT_EQ(report.corrupt_paths.size(), 1u);
  EXPECT_EQ(report.corrupt_paths[0], victim.ValueOrDie());

  // The file was moved aside, reported, and counted.
  EXPECT_FALSE(fenv_->FileExists(victim.ValueOrDie()));
  EXPECT_TRUE(fenv_->FileExists(victim.ValueOrDie() + ".quarantined"));
  ASSERT_EQ(reporter_.paths.size(), 1u);
  EXPECT_EQ(reporter_.paths[0], victim.ValueOrDie());
  EXPECT_TRUE(reporter_.causes[0].IsCorruption());
  EXPECT_EQ(store->GetStats().quarantined_files, 1u);

  // The store keeps serving: reads are OK or NotFound (never corrupt data),
  // writes and a second scrub work.
  for (int i = 0; i < 500; ++i) {
    auto r = store->Get(ReadOptions(), "key" + std::to_string(i));
    if (r.ok()) {
      EXPECT_EQ(r.ValueOrDie(), "value" + std::to_string(i));
    } else {
      EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
    }
  }
  ASSERT_TRUE(store->Put(WriteOptions(), "after", "quarantine").ok());
  ScrubReport second;
  ASSERT_TRUE(store->VerifyIntegrity(&second).ok());
  EXPECT_EQ(second.corrupt_files, 0u);
}

TEST_F(ScrubTest, ReadPathQuarantinesCorruptTable) {
  auto store = OpenStore();
  ASSERT_NO_FATAL_FAILURE(FillAndFlush(store.get(), 500));
  ASSERT_TRUE(fenv_->CorruptRandomFile("/db", FileClass::kSSTable, 32).ok());

  // The first read through the damaged block reports corruption and
  // quarantines the file; later reads miss cleanly instead of failing
  // forever.
  int corrupt_seen = 0;
  for (int i = 0; i < 500; ++i) {
    auto r = store->Get(ReadOptions(), "key" + std::to_string(i));
    if (!r.ok() && r.status().IsCorruption()) corrupt_seen++;
  }
  ASSERT_GT(corrupt_seen, 0);
  EXPECT_EQ(store->GetStats().quarantined_files, 1u);
  EXPECT_EQ(reporter_.paths.size(), 1u);
  for (int i = 0; i < 500; ++i) {
    auto r = store->Get(ReadOptions(), "key" + std::to_string(i));
    EXPECT_TRUE(r.ok() || r.status().IsNotFound())
        << r.status().ToString();
  }
}

TEST_F(ScrubTest, ScanPathQuarantinesCorruptTable) {
  auto store = OpenStore();
  ASSERT_NO_FATAL_FAILURE(FillAndFlush(store.get(), 500));
  ASSERT_TRUE(fenv_->CorruptRandomFile("/db", FileClass::kSSTable, 32).ok());

  // The first scan through the damaged block reports corruption and
  // quarantines the file; later scans see what is left instead of failing
  // forever.
  std::vector<std::pair<std::string, std::string>> rows;
  Status s = store->Scan(ReadOptions(), "", "", 0, &rows);
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(store->GetStats().quarantined_files, 1u);
  ASSERT_EQ(reporter_.paths.size(), 1u);
  EXPECT_TRUE(reporter_.causes[0].IsCorruption());
  for (int i = 0; i < 3; ++i) {
    rows.clear();
    s = store->Scan(ReadOptions(), "", "", 0, &rows);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(rows.empty());  // the one table held every key
  }
  EXPECT_EQ(reporter_.paths.size(), 1u);
}

// Rot that lands after a clean read fails the next read: no read is served
// bytes that were not checked on that read.
TEST_F(ScrubTest, RotAfterCleanScanFailsTheNextScan) {
  auto store = OpenStore();
  ASSERT_NO_FATAL_FAILURE(FillAndFlush(store.get(), 500));
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(store->Scan(ReadOptions(), "", "", 0, &rows).ok());
  ASSERT_EQ(rows.size(), 500u);

  const std::string sst = TablePath("/db");
  ASSERT_FALSE(sst.empty());
  ComplementByte(fenv_.get(), sst, 0);  // inside the first data block

  rows.clear();
  Status s = store->Scan(ReadOptions(), "", "", 0, &rows);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(store->GetStats().quarantined_files, 1u);
}

TEST_F(ScrubTest, ReopenQuarantinesTableThatFailsToLoad) {
  {
    auto store = OpenStore();
    ASSERT_NO_FATAL_FAILURE(FillAndFlush(store.get(), 500));
  }
  // Damage the table's footer region: Table::Open fails during manifest
  // load, and recovery must quarantine instead of refusing to start.
  const std::string sst = TablePath("/db");
  ASSERT_FALSE(sst.empty());
  uint64_t size = fenv_->FileSize(sst).ValueOrDie();
  ComplementByte(fenv_.get(), sst, size - 5);  // inside the footer magic

  auto store = OpenStore();
  EXPECT_EQ(store->GetStats().quarantined_files, 1u);
  EXPECT_TRUE(fenv_->FileExists(sst + ".quarantined"));
  ASSERT_EQ(reporter_.paths.size(), 1u);
  EXPECT_EQ(reporter_.paths[0], sst);
  // Still a working store.
  ASSERT_TRUE(store->Put(WriteOptions(), "k", "v").ok());
  EXPECT_EQ(store->Get(ReadOptions(), "k").ValueOrDie(), "v");
}

TEST_F(ScrubTest, ReopenQuarantinesTableWithCorruptFirstOrLastDataBlock) {
  // Open recomputes a table's bounds by reading its first and last data
  // blocks, which checksums both: rot in either while the store was closed
  // quarantines the table at reopen.
  for (const bool last_block : {false, true}) {
    SCOPED_TRACE(last_block ? "last data block" : "first data block");
    const std::string dir = last_block ? "/db-last" : "/db-first";
    {
      auto store = KVStore::Open(options_, dir).MoveValueUnsafe();
      ASSERT_NO_FATAL_FAILURE(FillAndFlush(store.get(), 500));
    }
    const std::string sst = TablePath(dir);
    ASSERT_FALSE(sst.empty());

    // Data blocks run from offset 0 to the filter block.
    std::string contents;
    ASSERT_TRUE(fenv_->ReadFileToString(sst, &contents).ok());
    Slice footer_input(
        contents.data() + contents.size() - Footer::kEncodedLength,
        Footer::kEncodedLength);
    Footer footer;
    ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
    ASSERT_GT(footer.filter_handle.size, 0u);
    // Several blocks, so the two cases damage different ones.
    ASSERT_GT(footer.filter_handle.offset, 2 * options_.block_size);
    ComplementByte(fenv_.get(), sst,
                   last_block ? footer.filter_handle.offset - 1 : 0);

    auto store = KVStore::Open(options_, dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(store.ValueOrDie()->GetStats().quarantined_files, 1u);
    EXPECT_TRUE(fenv_->FileExists(sst + ".quarantined"));
    EXPECT_FALSE(fenv_->FileExists(sst));
  }
}

TEST_F(ScrubTest, BackgroundScrubPacesBetweenCompactions) {
  options_.background_scrub = true;
  auto store = OpenStore();
  ASSERT_NO_FATAL_FAILURE(FillAndFlush(store.get(), 500));
  store->WaitForBackgroundWork();
  KVStoreStats stats = store->GetStats();
  EXPECT_GE(stats.scrubbed_files, 1u);  // the flushed table was scrubbed
  EXPECT_EQ(stats.quarantined_files, 0u);
}

TEST_F(ScrubTest, WalRecoveryDroppedBytesAreCounted) {
  {
    auto store = OpenStore();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(store
                      ->Put(WriteOptions(), "key" + std::to_string(i),
                            std::string(100, 'w'))
                      .ok());
    }
    // No flush: everything lives in the WAL.
  }
  auto files = fenv_->ListDir("/db").MoveValueUnsafe();
  std::string wal;
  for (const auto& f : files) {
    if (ClassifyFile(f) == FileClass::kWal) wal = "/db/" + f;
  }
  ASSERT_FALSE(wal.empty());
  uint64_t size = fenv_->FileSize(wal).ValueOrDie();
  ASSERT_GT(size, 0u);
  ComplementByte(fenv_.get(), wal, size / 2);

  auto store = OpenStore();
  EXPECT_GT(store->GetStats().wal_recovery_dropped_bytes, 0u);
  // Records before the damage survived.
  EXPECT_EQ(store->Get(ReadOptions(), "key0").ValueOrDie(),
            std::string(100, 'w'));
}

TEST_F(ScrubTest, LiveWalTailIsVerified) {
  auto store = OpenStore();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
  }
  ScrubReport report;
  ASSERT_TRUE(store->VerifyIntegrity(&report).ok());
  EXPECT_EQ(report.wal_dropped_bytes, 0u);

  // Rot the live WAL: the next scrub must notice (the WAL is never
  // quarantined — the damage only costs the unsynced tail on recovery).
  auto files = fenv_->ListDir("/db").MoveValueUnsafe();
  std::string wal;
  for (const auto& f : files) {
    if (ClassifyFile(f) == FileClass::kWal) wal = "/db/" + f;
  }
  ASSERT_FALSE(wal.empty());
  // Damage a payload byte of the first record (offset 9 = past the 7-byte
  // record header): a payload flip always fails the record CRC. A flip in a
  // length field instead can mimic a torn tail, which the reader forgives
  // by design.
  ComplementByte(fenv_.get(), wal, 9);
  ScrubReport damaged;
  ASSERT_TRUE(store->VerifyIntegrity(&damaged).ok());
  EXPECT_GT(damaged.wal_dropped_bytes, 0u);
  EXPECT_EQ(damaged.quarantined_files, 0u);
}

}  // namespace
}  // namespace storage
}  // namespace iotdb
