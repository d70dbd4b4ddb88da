// The cost per replica (google-benchmark, print-only): what one replica of
// a shard spends per kvp of the kit's stream — 1 KiB kvps from
// iot::DataGenerator in batches of 500.
//
//   BM_CoordinatorEncode     the coordinator's one encode of a batch, sized
//                            exactly before its first Put; every replica
//                            logs these bytes
//   BM_ReplicaStandalone     a KVStore's PutMany with its share of flush
//                            and compaction: what every replica paid when
//                            each ran a full LSM
//   BM_ReplicaLeaderCommit   a leader region's commit at given sequences,
//                            with its share of flush and compaction
//   BM_ReplicaBackupAppend   a backup region's log append
//   BM_ReplicaInstall        a backup's install of the leader's flushed
//                            files: the copy and its verification
//
// The replica rungs take batches encoded before timing, as replicas get
// them from the coordinator. cpu_us_per_kvp counts the process's CPU time,
// background threads included, through WaitForBackgroundWork.
#include <benchmark/benchmark.h>
#include <sys/resource.h>
#include <time.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "iot/data_generator.h"
#include "storage/env.h"
#include "storage/kvstore.h"
#include "storage/region.h"
#include "storage/write_batch.h"

namespace {

using iotdb::storage::KVStore;
using iotdb::storage::RegionRole;
using iotdb::storage::WriteBatch;
using iotdb::storage::WriteOptions;

constexpr int kBatchKvps = 500;
constexpr int kBatches = 120;  // 60k kvps: several 16 MiB flushes

using Rows = std::vector<std::pair<std::string, std::string>>;

// The kit's stream, generated once.
const std::vector<Rows>& Batches() {
  static const std::vector<Rows> batches = [] {
    iotdb::ManualClock clock(1'600'000'000'000'000);
    iotdb::iot::DataGenerator gen("sub01", uint64_t{kBatches} * kBatchKvps,
                                  7, &clock);
    std::vector<Rows> out(kBatches);
    for (Rows& rows : out) {
      while (rows.size() < kBatchKvps) {
        clock.Advance(50);
        iotdb::iot::Kvp kvp = gen.Next();
        rows.emplace_back(std::move(kvp.key), std::move(kvp.value));
      }
    }
    return out;
  }();
  return batches;
}

double ProcessCpuSeconds() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

// The coordinator's encode of `rows`: sized, then filled.
WriteBatch Encode(const Rows& rows, uint64_t sequence) {
  size_t bytes = 0;
  for (const auto& [key, value] : rows) {
    bytes += WriteBatch::PutSize(key, value);
  }
  WriteBatch batch;
  batch.Reserve(bytes);
  for (const auto& [key, value] : rows) batch.Put(key, value);
  batch.SetSequence(sequence);
  return batch;
}

// The kit's stream encoded once, each batch at the sequence a coordinator
// would give it.
const std::vector<WriteBatch>& NumberedBatches() {
  static const std::vector<WriteBatch> batches = [] {
    std::vector<WriteBatch> out;
    for (int b = 0; b < kBatches; ++b) {
      out.push_back(
          Encode(Batches()[b], 1 + static_cast<uint64_t>(b) * kBatchKvps));
    }
    return out;
  }();
  return batches;
}

// Installs each version into `backup`, timing the install on the leader's
// background thread.
class TimedShipper final : public iotdb::storage::RegionShipper {
 public:
  uint64_t Ship(const iotdb::storage::RegionVersion& version) override {
    const double t0 = ThreadCpuSeconds();
    uint64_t bad_file = 0;
    backup->Install(version, /*full=*/false, &bad_file).ok();
    cpu_s += ThreadCpuSeconds() - t0;
    return bad_file;
  }
  KVStore* backup = nullptr;
  double cpu_s = 0;
};

struct Stores {
  std::unique_ptr<iotdb::storage::Env> env = iotdb::storage::NewMemEnv();
  iotdb::storage::Options options;
  Stores() { options.env = env.get(); }
};

void Report(benchmark::State& state, double cpu_s) {
  const double kvps =
      static_cast<double>(state.iterations()) * kBatchKvps;
  state.counters["cpu_us_per_kvp"] = cpu_s * 1e6 / kvps;
}

void BM_CoordinatorEncode(benchmark::State& state) {
  Batches();
  int b = 0;
  const double cpu0 = ProcessCpuSeconds();
  for (auto _ : state) {
    WriteBatch batch = Encode(Batches()[b % kBatches],
                              1 + static_cast<uint64_t>(b) * kBatchKvps);
    benchmark::DoNotOptimize(batch.Contents().data());
    benchmark::ClobberMemory();
    b++;
  }
  Report(state, ProcessCpuSeconds() - cpu0);
}
BENCHMARK(BM_CoordinatorEncode)->UseRealTime();

void BM_ReplicaStandalone(benchmark::State& state) {
  Batches();
  Stores stores;
  auto store = KVStore::Open(stores.options, "/standalone").MoveValueUnsafe();
  int b = 0;
  const double cpu0 = ProcessCpuSeconds();
  for (auto _ : state) {
    std::vector<iotdb::storage::KvEntry> entries;
    for (const auto& [key, value] : Batches()[b++ % kBatches]) {
      entries.push_back({key, value});
    }
    store->PutMany(WriteOptions(), entries).ok();
  }
  store->FlushMemTable().ok();
  store->WaitForBackgroundWork();
  Report(state, ProcessCpuSeconds() - cpu0);
}
BENCHMARK(BM_ReplicaStandalone)->Iterations(kBatches)->UseRealTime();

void BM_ReplicaLeaderCommit(benchmark::State& state) {
  NumberedBatches();
  Stores stores;
  auto leader = KVStore::OpenRegion(stores.options, "/leader",
                                    RegionRole::kLeader)
                    .MoveValueUnsafe();
  int b = 0;
  const double cpu0 = ProcessCpuSeconds();
  for (auto _ : state) {
    leader->WriteAt(WriteOptions(), NumberedBatches()[b++ % kBatches]).ok();
  }
  leader->FlushMemTable().ok();
  leader->WaitForBackgroundWork();
  Report(state, ProcessCpuSeconds() - cpu0);
}
BENCHMARK(BM_ReplicaLeaderCommit)->Iterations(kBatches)->UseRealTime();

void BM_ReplicaBackupAppend(benchmark::State& state) {
  NumberedBatches();
  Stores stores;
  auto backup = KVStore::OpenRegion(stores.options, "/backup",
                                    RegionRole::kBackup)
                    .MoveValueUnsafe();
  int b = 0;
  const double cpu0 = ProcessCpuSeconds();
  for (auto _ : state) {
    backup->WriteAt(WriteOptions(), NumberedBatches()[b++ % kBatches]).ok();
  }
  Report(state, ProcessCpuSeconds() - cpu0);
}
BENCHMARK(BM_ReplicaBackupAppend)->Iterations(kBatches)->UseRealTime();

void BM_ReplicaInstall(benchmark::State& state) {
  NumberedBatches();
  Stores stores;
  TimedShipper shipper;
  auto backup = KVStore::OpenRegion(stores.options, "/backup",
                                    RegionRole::kBackup)
                    .MoveValueUnsafe();
  shipper.backup = backup.get();
  auto leader = KVStore::OpenRegion(stores.options, "/leader",
                                    RegionRole::kLeader, &shipper)
                    .MoveValueUnsafe();
  int b = 0;
  for (auto _ : state) {
    const WriteBatch& batch = NumberedBatches()[b++ % kBatches];
    leader->WriteAt(WriteOptions(), batch).ok();
    backup->WriteAt(WriteOptions(), batch).ok();
  }
  leader->FlushMemTable().ok();
  leader->WaitForBackgroundWork();
  Report(state, shipper.cpu_s);
  state.counters["install_bytes_per_kvp"] =
      static_cast<double>(backup->GetStats().install_bytes) /
      (static_cast<double>(state.iterations()) * kBatchKvps);
}
BENCHMARK(BM_ReplicaInstall)->Iterations(kBatches)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
