// Reproduces Figure 10: system-wide IoTps vs substations on 8 nodes, with
// the scaling factors S_i relative to one substation. Also prints the
// key-value-separation write-amplification cross-check: the same 1 KiB
// ingest with values separated at flush (the shipped configuration) and
// with every value inline (min_value_size = SIZE_MAX), compared on the
// storage.compaction.* registry counters. A [FAIL] of its >= 5x bound exits
// non-zero.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "storage/kvstore.h"

namespace {

struct WriteAmpResult {
  uint64_t ingested_bytes = 0;
  uint64_t compaction_bytes = 0;  // bytes written by flush + compaction
  uint64_t vlog_bytes = 0;        // bytes appended to the value log
  uint64_t vlog_deleted = 0;      // of those, in files no table links
};

// Ingests kKeys x ~1 KiB values (the TPCx-IoT payload shape) into a fresh
// store, forces the LSM to digest everything, and reports the registry
// delta of compaction traffic. Each key is written twice, so compaction
// unlinks the vlog files that hold only first versions, and the store
// deletes them.
WriteAmpResult RunWriteAmpWorkload(bool separated, uint64_t scale) {
  namespace st = iotdb::storage;
  auto& registry = iotdb::obs::MetricsRegistry::Global();
  iotdb::obs::Counter* flushed =
      registry.GetCounter("storage.memtable.bytes_flushed");
  iotdb::obs::Counter* compacted =
      registry.GetCounter("storage.compaction.bytes_written");
  iotdb::obs::Counter* vlog_appended =
      registry.GetCounter("storage.vlog.appended_bytes");
  const uint64_t flushed0 = flushed->Value();
  const uint64_t compacted0 = compacted->Value();
  const uint64_t vlog0 = vlog_appended->Value();

  auto env = st::NewMemEnv();
  st::Options options;
  options.env = env.get();
  options.write_buffer_size = 256 * 1024;  // small: many flush/compact turns
  if (!separated) options.min_value_size = SIZE_MAX;  // every value inline
  auto store = st::KVStore::Open(options, "/writeamp").MoveValueUnsafe();

  const uint64_t kKeys = 20000 / (scale > 0 ? scale : 1);
  const std::string value(1000, 'v');
  WriteAmpResult result;
  for (uint64_t i = 0; i < kKeys; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "sub0001.sensor%08llu",
             static_cast<unsigned long long>(i % (kKeys / 2 + 1)));
    store->Put(st::WriteOptions(), key, value);
    result.ingested_bytes += value.size();
  }
  store->FlushMemTable().ok();
  store->CompactAll().ok();
  store->WaitForBackgroundWork();
  const st::KVStoreStats stats = store->GetStats();
  store.reset();

  result.compaction_bytes =
      (flushed->Value() - flushed0) + (compacted->Value() - compacted0);
  result.vlog_bytes = vlog_appended->Value() - vlog0;
  result.vlog_deleted = stats.vlog_appended_bytes - stats.vlog_bytes;
  return result;
}

// Returns false when separation misses its compaction-byte bound.
bool PrintWriteAmpCrossCheck(uint64_t scale) {
  printf("\nWrite-amplification cross-check (1 KiB values, overwrite-heavy "
         "ingest):\n");
  printf("%14s %16s %18s %12s %10s\n", "mode", "ingested_B", "flush+compact_B",
         "vlog_B", "write-amp");
  WriteAmpResult inline_values = RunWriteAmpWorkload(false, scale);
  WriteAmpResult separated = RunWriteAmpWorkload(true, scale);
  auto amp = [](const WriteAmpResult& r) {
    return r.ingested_bytes > 0
               ? static_cast<double>(r.compaction_bytes + r.vlog_bytes) /
                     static_cast<double>(r.ingested_bytes)
               : 0.0;
  };
  printf("%14s %16llu %18llu %12llu %9.2fx\n", "inline",
         static_cast<unsigned long long>(inline_values.ingested_bytes),
         static_cast<unsigned long long>(inline_values.compaction_bytes),
         static_cast<unsigned long long>(inline_values.vlog_bytes),
         amp(inline_values));
  printf("%14s %16llu %18llu %12llu %9.2fx\n", "value_sep",
         static_cast<unsigned long long>(separated.ingested_bytes),
         static_cast<unsigned long long>(separated.compaction_bytes),
         static_cast<unsigned long long>(separated.vlog_bytes),
         amp(separated));
  const double reduction =
      separated.compaction_bytes > 0
          ? static_cast<double>(inline_values.compaction_bytes) /
                static_cast<double>(separated.compaction_bytes)
          : 0.0;
  const bool pass = reduction >= 5.0;
  printf("[%s] compaction-byte reduction: %.1fx, bound >= 5x (vlog bytes "
         "deleted: %llu B)\n",
         pass ? "PASS" : "FAIL", reduction,
         static_cast<unsigned long long>(separated.vlog_deleted));
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Args args = benchutil::ParseArgs(argc, argv);
  benchutil::StartCollection(args);
  benchutil::PrintHeader("Figure 10: system-wide IoTps and scaling factors "
                         "(8 nodes)",
                         "TPCx-IoT paper Fig. 10");

  auto results = benchutil::Sweep(8, args);
  double base = results.empty() ? 0 : results[0].SystemIoTps();

  printf("%12s %16s %10s %s\n", "substations", "IoTps", "S_i", "regime");
  for (const auto& r : results) {
    double s = base > 0 ? r.SystemIoTps() / base : 0;
    const char* regime =
        s > r.config.substations ? "super-linear"
                                 : (r.config.substations > 1 ? "sub-linear"
                                                             : "baseline");
    printf("%12d %16.0f %10.2f %s\n", r.config.substations, r.SystemIoTps(),
           s, regime);
  }
  printf("\nPaper reference: S_2=2.8, S_4=5.5, S_8=8.6 (super-linear), "
         "S_16=13.7, S_32=19.0, S_48=18.6 (sub-linear).\n");

  const bool write_amp_ok = PrintWriteAmpCrossCheck(args.scale);

  benchutil::MaybeWriteMetrics(args);
  benchutil::MaybeWriteTimeline(args);
  benchutil::MaybeWriteTrace(args);
  return write_amp_ok ? 0 : 1;
}
