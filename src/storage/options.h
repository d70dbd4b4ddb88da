#ifndef IOTDB_STORAGE_OPTIONS_H_
#define IOTDB_STORAGE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "common/clock.h"

namespace iotdb {
namespace storage {

class CompactionFilter;
class Comparator;
class CorruptionReporter;
class Env;

/// Tuning knobs of the LSM engine. Defaults mirror the spirit of the paper's
/// HBase tuning (large write buffer, many handlers, blocking store files).
struct Options {
  /// Key ordering; defaults to bytewise.
  const Comparator* comparator = nullptr;

  /// Filesystem; defaults to Env::Posix().
  Env* env = nullptr;

  /// Time source; defaults to Clock::Real().
  Clock* clock = nullptr;

  /// Memtable size that triggers a flush (HBase: hbase.hregion.memstore
  /// flush size). At 4 MiB the kit's 1 KB-value ingest flushes four times
  /// as often and more than doubles write amplification (DESIGN.md "Write
  /// path"); tests that want flushes set it smaller.
  size_t write_buffer_size = 16 * 1024 * 1024;

  /// Uncompressed size target of an SSTable data block.
  size_t block_size = 4 * 1024;

  /// Number of keys between restart points in a data block.
  int block_restart_interval = 16;

  /// Bits per key of the per-table bloom filter; 0 disables the filter.
  int bloom_bits_per_key = 10;

  /// Number of L0 files that triggers a compaction (HBase:
  /// hbase.hstore.compactionThreshold).
  int l0_compaction_trigger = 4;

  /// Number of L0 files at which writes stall until compaction catches up
  /// (HBase: hbase.hstore.blockingStoreFiles).
  int l0_stall_trigger = 12;

  /// If false, Put/Write return once the WAL record is buffered (HBase
  /// deferred log flush). If true, every commit syncs.
  bool wal_sync = false;

  /// Optional hook dropping entries during compaction (data retention);
  /// see compaction_filter.h. Not owned; must outlive the store.
  const CompactionFilter* compaction_filter = nullptr;

  /// Optional callback fired when verification quarantines a corrupt file
  /// (see corruption_reporter.h). Not owned; must outlive the store. May be
  /// invoked with store locks held — implementations must only enqueue.
  CorruptionReporter* corruption_reporter = nullptr;

  /// Background scrub: newly flushed/compacted SSTables are queued and one
  /// is checksum-verified per idle background cycle, between compactions.
  /// KVStore::VerifyIntegrity() is always available regardless.
  bool background_scrub = false;

  /// WiscKey-style key-value separation: values of at least min_value_size
  /// bytes are appended to a `.vlog` file and the LSM stores a fixed-width
  /// value pointer instead, cutting compaction write amplification for the
  /// TPCx-IoT 1 KB-payload / ~30 B-key workload. The flag is a property of
  /// the on-disk store: it is persisted in the manifest, and an Open with a
  /// mismatching flag adopts the manifest's value. See vlog_format.h.
  bool value_separation = false;

  /// Values smaller than this stay inline in the LSM (pointer overhead
  /// would dominate them).
  size_t min_value_size = 256;

  /// Active vlog file is sealed and a new one started past this size.
  uint64_t vlog_file_size = 4 * 1024 * 1024;

  /// Background GC starts on the tail vlog file once its compaction-
  /// estimated dead-byte ratio reaches this threshold.
  double vlog_gc_dead_ratio = 0.5;

  /// Pace vlog garbage collection in idle background cycles (between
  /// compactions, like the background scrub). KVStore::GarbageCollect() is
  /// always available regardless.
  bool background_vlog_gc = true;
};

/// Per-read options; none yet. Every read reads and checksum-verifies each
/// block it touches.
struct ReadOptions {};

/// Per-write options.
struct WriteOptions {
  /// Overrides Options::wal_sync for this write when set.
  bool sync = false;
};

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_OPTIONS_H_
