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

  /// Key-value separation is always on: when a memtable flushes, every
  /// value of at least min_value_size bytes goes, in key order, to value-log
  /// files of that flush, and the table stores a pointer to it (DESIGN.md,
  /// "Key-value separation"). Compaction then moves ~60-byte pointer entries
  /// instead of 1 KiB rows. The constant remains only because the repository
  /// benchmark (kitbench/) reports it; for an all-inline ablation set
  /// min_value_size = SIZE_MAX.
  static constexpr bool value_separation = true;

  /// Values smaller than this stay inline in the LSM (pointer overhead
  /// would dominate them).
  size_t min_value_size = 256;

  /// A flush starts a new vlog file once the current one reaches this size.
  /// A vlog file is deleted once no live table links it, so this is also
  /// the unit in which space comes back (DESIGN.md, "Vlog file liveness").
  uint64_t vlog_file_size = 4 * 1024 * 1024;
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
