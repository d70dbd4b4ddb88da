// Storage-engine micro-benchmarks (google-benchmark): component costs of
// the LSM engine on this host. Not a paper figure — supporting data for
// DESIGN.md's substrate claims.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
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

  explicit StoreFixture(bool value_separation = false) {
    Options options;
    options.env = env.get();
    options.write_buffer_size = 8 << 20;
    options.value_separation = value_separation;
    store = KVStore::Open(options, "/bench").MoveValueUnsafe();
  }
};

// sep=0: values inline in the LSM. sep=1: WiscKey-style key-value
// separation, the 1 KiB payload goes to the vlog and the tree keeps a
// 21-byte pointer.
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
// checksum + deref cache) against the inline baseline.
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

void BM_KVStoreScan100(benchmark::State& state) {
  StoreFixture fixture;
  std::string value(1000, 'v');
  const int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "key%08d", i);
    fixture.store->Put(WriteOptions(), key, value);
  }
  fixture.store->FlushMemTable();
  Random rng(9);
  for (auto _ : state) {
    char start[32];
    int base = static_cast<int>(rng.Uniform(kKeys - 100));
    snprintf(start, sizeof(start), "key%08d", base);
    std::vector<std::pair<std::string, std::string>> rows;
    benchmark::DoNotOptimize(
        fixture.store->Scan(ReadOptions(), start, iotdb::Slice(), 100,
                            &rows));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_KVStoreScan100);

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

}  // namespace

BENCHMARK_MAIN();
