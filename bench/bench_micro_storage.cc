// Storage-engine micro-benchmarks (google-benchmark): component costs of
// the LSM engine on this host. Not a paper figure — supporting data for
// DESIGN.md's substrate claims.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "common/row_sink.h"
#include "storage/bloom.h"
#include "storage/env.h"
#include "storage/kvstore.h"
#include "storage/write_batch.h"

namespace {

using iotdb::Random;
using iotdb::storage::BloomFilterBuilder;
using iotdb::storage::Env;
using iotdb::storage::KVStore;
using iotdb::storage::NewMemEnv;
using iotdb::storage::Options;
using iotdb::storage::ReadOptions;
using iotdb::storage::WriteBatch;
using iotdb::storage::WriteOptions;

struct StoreFixture {
  std::unique_ptr<Env> env = NewMemEnv();
  std::unique_ptr<KVStore> store;

  explicit StoreFixture(bool separated = false) {
    Options options;
    options.env = env.get();
    options.write_buffer_size = 8 << 20;
    if (!separated) options.min_value_size = SIZE_MAX;  // every value inline
    store = KVStore::Open(options, "/bench").MoveValueUnsafe();
  }
};

// sep=0: values inline in the LSM (min_value_size = SIZE_MAX). sep=1: the
// shipped key-value separation, where a flush moves the 1 KiB payload to a
// vlog file and the tree keeps a 20-byte pointer and the value's 16-byte
// head. Puts take the same write
// path either way; they differ only in what their flushes write.
void BM_KVStorePut1KiB(benchmark::State& state) {
  StoreFixture fixture(state.range(0) != 0);
  Random rng(1);
  std::string value(1024 - 24, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    char key[32];
    snprintf(key, sizeof(key), "key%020llu",
             static_cast<unsigned long long>(i++));
    benchmark::DoNotOptimize(
        fixture.store->Put(WriteOptions(), key, value));
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_KVStorePut1KiB)->ArgName("sep")->Arg(0)->Arg(1);

void BM_KVStoreBatchPut(benchmark::State& state) {
  StoreFixture fixture;
  const int batch_size = static_cast<int>(state.range(0));
  std::string value(1000, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    WriteBatch batch;
    for (int j = 0; j < batch_size; ++j) {
      char key[32];
      snprintf(key, sizeof(key), "key%020llu",
               static_cast<unsigned long long>(i++));
      batch.Put(key, value);
    }
    benchmark::DoNotOptimize(fixture.store->Write(WriteOptions(), &batch));
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_KVStoreBatchPut)->Arg(10)->Arg(100)->Arg(1000);

// sep=1 measures the pointer-dereference read path (vlog positional read +
// checksum, on every Get) against the inline baseline.
void BM_KVStoreGet(benchmark::State& state) {
  StoreFixture fixture(state.range(0) != 0);
  std::string value(1000, 'v');
  const int kKeys = 10000;
  for (int i = 0; i < kKeys; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "key%08d", i);
    fixture.store->Put(WriteOptions(), key, value);
  }
  fixture.store->FlushMemTable();
  Random rng(7);
  for (auto _ : state) {
    char key[32];
    snprintf(key, sizeof(key), "key%08d",
             static_cast<int>(rng.Uniform(kKeys)));
    benchmark::DoNotOptimize(fixture.store->Get(ReadOptions(), key));
  }
}
BENCHMARK(BM_KVStoreGet)->ArgName("sep")->Arg(0)->Arg(1);

/// Sums the value sizes of the rows it is handed, copying nothing. With
/// `take_heads` it takes each separated row by its head instead, so the
/// scan reads no vlog record.
class ValueBytesSink final : public iotdb::RowSink {
 public:
  explicit ValueBytesSink(bool take_heads) : take_heads_(take_heads) {}

  void Add(const iotdb::Slice& /*key*/, const iotdb::Slice& value) override {
    bytes += value.size();
  }
  bool AddHead(const iotdb::Slice& /*key*/,
               const iotdb::Slice& head) override {
    if (take_heads_) bytes += head.size();
    return take_heads_;
  }
  void Clear() override { bytes = 0; }

  uint64_t bytes = 0;

 private:
  const bool take_heads_;
};

// The cost per row dereference, over the shipped layout: a flush moves each
// 1000-byte value to a vlog file and the table keeps its pointer and head.
// compacted=0: the three L0 tables the flushes leave. compacted=1:
// CompactAll first, which leaves disjoint tables. Each scan passes the
// window's end key, as a dashboard query does. sink=0 collects the rows
// into a vector (a copy of every key and value); sink=1 hands whole values
// to a sink that reads each in place, one vlog record read per row; sink=2
// hands it each row's head, and reads no record. The gap between sink=1
// and sink=2 is the dereference cost of 100 rows; `derefs_per_row` counts
// the records read (KVStoreStats::vlog_dereferences). Print-only.
void BM_KVStoreScan100(benchmark::State& state) {
  StoreFixture fixture(/*separated=*/true);
  std::string value(1000, 'v');
  const int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "key%08d", i);
    fixture.store->Put(WriteOptions(), key, value);
  }
  fixture.store->FlushMemTable();
  if (state.range(0) != 0) fixture.store->CompactAll();
  Random rng(9);
  const uint64_t derefs_before = fixture.store->GetStats().vlog_dereferences;
  for (auto _ : state) {
    char start[32];
    char end[32];
    int base = static_cast<int>(rng.Uniform(kKeys - 100));
    snprintf(start, sizeof(start), "key%08d", base);
    snprintf(end, sizeof(end), "key%08d", base + 100);
    if (state.range(1) == 0) {
      std::vector<std::pair<std::string, std::string>> rows;
      benchmark::DoNotOptimize(
          fixture.store->Scan(ReadOptions(), start, end, 100, &rows));
    } else {
      ValueBytesSink sink(/*take_heads=*/state.range(1) == 2);
      benchmark::DoNotOptimize(fixture.store->Scan(start, end, 100, &sink));
      benchmark::DoNotOptimize(sink.bytes);
    }
  }
  const uint64_t derefs =
      fixture.store->GetStats().vlog_dereferences - derefs_before;
  state.counters["derefs_per_row"] =
      static_cast<double>(derefs) /
      static_cast<double>(std::max<uint64_t>(state.iterations() * 100, 1));
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_KVStoreScan100)
    ->ArgNames({"compacted", "sink"})
    ->ArgsProduct({{0, 1}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

void BM_BloomFilterBuild(benchmark::State& state) {
  std::vector<std::string> keys;
  for (int i = 0; i < 10000; ++i) keys.push_back("key" + std::to_string(i));
  for (auto _ : state) {
    BloomFilterBuilder builder(10);
    for (const std::string& key : keys) builder.AddKey(key);
    benchmark::DoNotOptimize(builder.Finish());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_BloomFilterBuild);

void BM_BloomFilterProbe(benchmark::State& state) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 10000; ++i) builder.AddKey("key" + std::to_string(i));
  std::string filter = builder.Finish();
  Random rng(3);
  for (auto _ : state) {
    std::string key = "key" + std::to_string(rng.Uniform(20000));
    benchmark::DoNotOptimize(
        iotdb::storage::BloomFilterMayMatch(filter, key));
  }
}
BENCHMARK(BM_BloomFilterProbe);

// kernel=0: crc32c::Extend as dispatched (SSE4.2 where the CPU has it);
// kernel=1: the portable slicing-by-8 fallback. 1 KiB is one kvp, 4 KiB one
// table block, 512 KiB a large group-commit WAL record.
void BM_Crc32c(benchmark::State& state) {
  const iotdb::crc32c::internal::ExtendFn extend =
      state.range(0) == 0 ? iotdb::crc32c::Extend
                          : iotdb::crc32c::internal::ExtendPortable;
  Random rng(4);
  std::string data(static_cast<size_t>(state.range(1)), '\0');
  for (char& c : data) c = static_cast<char>(rng.Next());
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = extend(crc, data.data(), data.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_Crc32c)
    ->ArgNames({"kernel", "bytes"})
    ->ArgsProduct({{0, 1}, {1024, 4096, 512 * 1024}});

}  // namespace

BENCHMARK_MAIN();
