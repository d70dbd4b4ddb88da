#ifndef IOTDB_STORAGE_KVSTORE_H_
#define IOTDB_STORAGE_KVSTORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/row_sink.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "storage/db_iter.h"
#include "storage/dbformat.h"
#include "storage/env.h"
#include "storage/iterator.h"
#include "storage/log_writer.h"
#include "storage/memtable.h"
#include "storage/options.h"
#include "storage/version.h"
#include "storage/vlog_gc.h"
#include "storage/vlog_reader.h"
#include "storage/write_batch.h"

namespace iotdb {
namespace storage {

/// Point-in-time view of a store's counters, assembled by KVStore::GetStats
/// from atomic instruments (the counters themselves live in
/// KVStore::StoreCounters; this struct is a plain copy for callers).
struct KVStoreStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t scans = 0;
  uint64_t memtable_flushes = 0;
  uint64_t compactions = 0;
  uint64_t write_stall_micros = 0;
  uint64_t bytes_flushed = 0;
  uint64_t bytes_compacted = 0;
  int num_files[kNumLevels] = {};
  uint64_t level_bytes[kNumLevels] = {};
  uint64_t wal_recovery_dropped_bytes = 0;
  uint64_t scrubbed_files = 0;
  uint64_t quarantined_files = 0;
  // Key-value separation: vlog files and bytes written at flush.
  uint64_t vlog_files = 0;  // live vlog files
  uint64_t vlog_appended_bytes = 0;
  uint64_t vlog_dereferences = 0;
  uint64_t vlog_gc_reclaimed_bytes = 0;
  /// Bytes of live vlog files whose records compaction dropped (the
  /// estimate that paces GC).
  uint64_t vlog_dead_bytes = 0;
  /// Always 100: the store has a single write queue, so there is no skew
  /// to report. Kept only because the repository benchmark (kitbench/)
  /// reads it.
  double shard_imbalance_pct = 100.0;
};

/// Outcome of one KVStore::VerifyIntegrity pass.
struct ScrubReport {
  uint64_t files_checked = 0;
  uint64_t bytes_checked = 0;
  uint64_t corrupt_files = 0;      // failed checksum verification
  uint64_t quarantined_files = 0;  // removed from the live set & moved aside
  uint64_t wal_dropped_bytes = 0;  // corrupt bytes found in live WAL tails
  std::vector<std::string> corrupt_paths;
};

/// One key/value pair of a vectorized ingest (KVStore::PutMany). Slices are
/// not owned; they must stay valid for the duration of the call.
struct KvEntry {
  Slice key;
  Slice value;
};

/// A single-node LSM key-value store (the HBase region-server storage
/// analogue): WAL + memtable + leveled SSTables, with large values
/// separated into value-log files when a memtable flushes. Thread-safe: any
/// number of concurrent readers and writers.
///
/// Writes go through one queue, like an HBase region server's single WAL:
/// one memtable pair, one WAL and one group-commit leader that writes a
/// combined WAL record for every queued batch. A batch is atomic, a
/// `sync` write is a durability barrier for every write acknowledged
/// before it, and sequence numbers publish in commit order, so every
/// snapshot is an exact prefix of the write history.
///
/// Typical use:
///   auto store = KVStore::Open(options, "/data/gw").MoveValueUnsafe();
///   store->Put(WriteOptions(), key, value);
///   auto val = store->Get(ReadOptions(), key);
///   store->Scan(start, end, 0, &sink);
class KVStore {
 public:
  /// Opens (creating if needed) the store in directory `name`, replaying any
  /// WAL left by a previous incarnation.
  static Result<std::unique_ptr<KVStore>> Open(const Options& options,
                                               const std::string& name);

  /// Deletes all files of the store at `name` (TPCx-IoT system cleanup).
  static Status Destroy(const Options& options, const std::string& name);

  ~KVStore();

  KVStore(const KVStore&) = delete;
  KVStore& operator=(const KVStore&) = delete;

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value);
  Status Delete(const WriteOptions& options, const Slice& key);

  /// Applies a batch atomically. Concurrent callers are group-committed:
  /// one leader writes a combined WAL record for all queued batches.
  Status Write(const WriteOptions& options, WriteBatch* batch);

  /// Vectorized ingest: commits `entries` as one WriteBatch, with the same
  /// atomicity and group commit as Write(). The fast path for drivers
  /// handing the store arrays of 1 KB kvps.
  Status PutMany(const WriteOptions& options,
                 std::span<const KvEntry> entries);

  /// Point lookup. NotFound status when absent.
  Result<std::string> Get(const ReadOptions& options, const Slice& key);

  /// Ordered iterator over live user keys at the current snapshot. The
  /// returned iterator pins the memtables/tables it reads.
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& options);

  /// Range scan: hands `sink` the key/value pairs where start <= key <
  /// end_exclusive (empty end = unbounded) in key order, at most `limit` of
  /// them when limit > 0, each where it lies (see RowSink). Reads the
  /// memtables plus only the tables whose key range overlaps the bounds. A
  /// Corruption status quarantines every table of the scan that fails
  /// verification, or the vlog file of a record that fails its checks, as
  /// Get does; the sink may have received some rows.
  Status Scan(const Slice& start, const Slice& end_exclusive, size_t limit,
              RowSink* sink);

  /// Scan that appends copies of the rows to `out`; pairs `out` already
  /// held do not count against `limit`.
  Status Scan(const ReadOptions& options, const Slice& start,
              const Slice& end_exclusive, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out);

  /// Snapshots: reads at a released sequence see a frozen view.
  SequenceNumber GetSnapshot();
  void ReleaseSnapshot(SequenceNumber snapshot);

  /// Forces a flush of the memtable and waits for completion.
  Status FlushMemTable();

  /// Compacts everything down to the last populated level and waits.
  Status CompactAll();

  /// Scrub: checksum-walks every live SSTable (footer, index, filter, and
  /// every data block), every live vlog file, and the live WAL tail.
  /// Files that fail verification are atomically quarantined — renamed to
  /// `<name>.quarantined`, dropped from the version set, and reported via
  /// Options::corruption_reporter — so they never serve another read.
  /// Returns non-OK only when the walk itself could not run;
  /// corruption found (and healed by quarantine) is described by `report`.
  Status VerifyIntegrity(ScrubReport* report = nullptr);

  /// True iff `path` names a table file currently in the version set.
  /// Obsolete files (compacted away, possibly still on disk) and
  /// quarantined files are not live: their bytes can no longer reach a
  /// fresh read.
  bool IsLiveTableFile(const std::string& path);

  /// True iff `path` names a vlog file a flush installed that is still in
  /// the live set. GC-reclaimed and quarantined vlog files are not live.
  bool IsLiveVlogFile(const std::string& path);

  /// Value-log garbage collection: walks vlog files from the tail (oldest
  /// first), re-puts each record whose pointer is still the newest version
  /// of its key as an ordinary full-value write (the next flush separates
  /// it again), and drops the file. Stops once at least `chunk_size` bytes
  /// of vlog files were processed (0 = the whole tail). Physical deletion
  /// is deferred while iterators, point lookups or snapshots are open.
  /// Also paced automatically in idle background cycles when
  /// Options::background_vlog_gc is set and the tail file's dead ratio
  /// crosses Options::vlog_gc_dead_ratio.
  Status GarbageCollect(uint64_t chunk_size = 0,
                        uint64_t* reclaimed_bytes = nullptr);

  /// Blocks until no background work is queued or running, or until a hard
  /// background error has stopped it.
  void WaitForBackgroundWork();

  KVStoreStats GetStats();

  /// Total live user entries are not tracked exactly (tombstones); this is
  /// the count of non-deleted keys seen by a full scan. Expensive.
  uint64_t CountKeysSlow();

  const std::string& name() const { return dbname_; }

  /// Always 1: the store has a single write queue. Kept only because the
  /// repository benchmark (kitbench/) prints it in its config line.
  int num_write_shards() const { return 1; }

 private:
  KVStore(const Options& options, const std::string& name);

  struct WriterState;
  class VlogResolver;

  std::string LogFileName(uint64_t number) const;
  std::string TableFileName(uint64_t number) const;
  std::string VlogName(uint64_t number) const;
  std::string ManifestFileName() const;

  Status Recover();
  Status ReplayLogFile(uint64_t number, uint64_t* dropped_bytes,
                       SequenceNumber* max_sequence);
  Status ReplayBatch(const Slice& contents, SequenceNumber* max_sequence);
  Status OpenTable(uint64_t number, std::shared_ptr<FileMeta>* meta);

  // Key-value separation. Locked variants require mu_.
  // Writes the table of `imm` and the vlog files of its large values, and
  // syncs both; appends the vlog files it wrote to *vlog_outputs and counts
  // their records in *vlog_records. *meta stays null for an empty imm.
  Status BuildFlushOutputs(MemTable* imm, uint64_t table_number,
                           std::vector<vlog::VlogFileInfo>* vlog_outputs,
                           uint64_t* vlog_records,
                           std::shared_ptr<FileMeta>* meta);
  // The newest entry of `user_key` at `snapshot`, its type and its stored
  // value (a pointer is not resolved). Used by GC to decide record
  // liveness; needs mu_ plus write_mu_ with no leader active.
  Status RawGetFrozen(const Slice& user_key, SequenceNumber snapshot,
                      bool* found, ValueType* type, std::string* raw_value);
  bool IsVlogLiveLocked(uint64_t number) const;
  bool NeedsVlogGcLocked() const;
  Status GarbageCollectLocked(std::unique_lock<std::mutex>* lock,
                              uint64_t chunk_size, uint64_t* reclaimed_bytes);
  void QuarantineVlogFile(uint64_t number, const Status& cause);
  void QuarantineVlogFileLocked(uint64_t number, const Status& cause);
  void VerifyVlogFiles(std::unique_lock<std::mutex>* lock,
                       ScrubReport* report);
  Status ScrubOneVlogQueued(std::unique_lock<std::mutex>* lock);
  void MaybeDeleteVlogFilesLocked();
  void OnIteratorClosed();

  // Write path helpers (write_mu_ held).
  Status MakeRoomForWrite(std::unique_lock<std::mutex>* write_lock,
                          bool* switched);
  WriteBatch* BuildBatchGroup(WriterState** last_writer);
  Status SwitchMemTable();

  SequenceNumber VisibleSequence() const {
    return visible_seq_.load(std::memory_order_acquire);
  }
  Status BackgroundErrorSnapshot();
  void SetBackgroundError(const Status& s);

  /// Wakes writers parked in MakeRoomForWrite or FlushMemTable: the L0
  /// count and background error they wait on change under mu_, not
  /// write_mu_.
  void WakeWriters();

  // Background work.
  void MaybeScheduleBackgroundWork();  // mu_ held
  void BackgroundCall();
  Status FlushImmutable(std::unique_lock<std::mutex>* lock);
  bool NeedsCompaction() const;
  Status RunCompaction(std::unique_lock<std::mutex>* lock);
  Status RunCompactionAtLevel(int level, std::unique_lock<std::mutex>* lock);
  bool IsBaseLevelForKey(int output_level, const Slice& user_key) const;

  Status WriteManifest();  // mu_ held
  Status LoadManifest(bool* found);
  void RemoveObsoleteFiles();  // mu_ held
  void SyncL0CountLocked();    // mu_ held; refreshes the l0_files_ mirror

  // Scrub & quarantine (see VerifyIntegrity).
  void QuarantinePath(const std::string& path, const Status& cause);
  bool QuarantineFileLocked(const std::shared_ptr<FileMeta>& meta,
                            const Status& cause);  // mu_ held
  // Verifies `files` with mu_ released and quarantines each that fails.
  // mu_ held on entry and exit.
  void QuarantineCorruptTables(
      std::unique_lock<std::mutex>* lock,
      const std::vector<std::shared_ptr<FileMeta>>& files,
      ScrubReport* report);
  std::vector<std::shared_ptr<FileMeta>> LiveTablesLocked() const;  // mu_ held
  Status VerifyWalTail(uint64_t number, uint64_t* dropped_bytes);
  Status ScrubOneQueued(std::unique_lock<std::mutex>* lock);
  // One file checked by a scrub (table or vlog).
  void RecordScrub(uint64_t bytes, bool corrupt);

  SequenceNumber SmallestSnapshot() const;  // mu_ held

  std::vector<std::shared_ptr<FileMeta>> FilesOverlappingRange(
      int level, const Slice& begin_user_key,
      const Slice& end_user_key) const;  // mu_ held

  // The one iterator builder: both memtables plus every table whose user-key
  // range overlaps [start, end_exclusive] (an empty bound is open). The
  // iterator ends before end_exclusive; rows before `start` may be missing
  // or stale, so only Scan, which seeks to its start, passes one.
  // NewIterator is the unbounded case. `opened`, when non-null, receives
  // the tables the iterator reads.
  std::unique_ptr<Iterator> NewBoundedIterator(
      const Slice& start, const Slice& end_exclusive,
      std::vector<std::shared_ptr<FileMeta>>* opened);

  Options options_;
  Env* env_;
  std::string dbname_;
  InternalKeyComparator icmp_;

  std::mutex mu_;
  std::condition_variable background_work_finished_cv_;

  /// The write queue: one memtable pair, one WAL and the group-commit
  /// queue, guarded by write_mu_. Kept apart from mu_ so commits never
  /// wait on flush/compaction bookkeeping. Lock order: mu_ before
  /// write_mu_; error_mu_ is a leaf (never take mu_ while holding
  /// write_mu_).
  std::mutex write_mu_;
  /// Signals leader handoff, imm drain and stall release.
  std::condition_variable write_cv_;
  MemTable* mem_ = nullptr;  // pointer swap guarded by write_mu_
  MemTable* imm_ = nullptr;  // immutable memtable being flushed
  /// Mirror of (imm_ != nullptr) readable without write_mu_ (the
  /// background dispatcher holds mu_ only).
  std::atomic<bool> has_imm_{false};
  std::unique_ptr<WritableFile> log_file_;
  std::unique_ptr<log::Writer> log_;
  uint64_t logfile_number_ = 0;       // active WAL; guarded by write_mu_
  std::deque<WriterState*> writers_;  // guarded by write_mu_
  WriteBatch tmp_batch_;              // leader-only group scratch
  /// True while the leader performs WAL/memtable work outside write_mu_;
  /// memtable switches and the GC re-put commit must wait on it.
  bool leader_active_ = false;  // guarded by write_mu_

  LevelState levels_;
  /// Mirror of levels_.NumFiles(0), readable by the leader, which must not
  /// take mu_ while holding write_mu_ (L0 write stalls).
  std::atomic<uint64_t> l0_files_{0};

  // Key-value separation state, guarded by mu_. vlog_files_ holds the vlog
  // files flushes installed, oldest (GC tail) first, and is persisted in
  // the manifest. A file a flush is still writing is in none of these
  // lists; flushes and compactions run one at a time, so RemoveObsoleteFiles
  // never meets one.
  std::unique_ptr<vlog::VlogReader> vlog_reader_;
  std::vector<vlog::VlogFileInfo> vlog_files_;
  // Installed vlog files awaiting a paced background checksum walk.
  std::deque<uint64_t> pending_vlog_scrub_;
  // GC-reclaimed files whose deletion waits until no reader can still hold
  // a pointer into them: open iterators, in-flight point Gets, snapshots.
  std::vector<uint64_t> vlog_pending_delete_;
  int open_readers_ = 0;
  bool vlog_gc_running_ = false;

  std::atomic<uint64_t> next_file_number_{1};

  /// Last published sequence number. The commit leader (or the GC re-put
  /// holding the queue) numbers its group from here and publishes the
  /// group's last sequence after the memtable insert; readers snapshot it
  /// without any lock.
  std::atomic<SequenceNumber> visible_seq_{0};

  /// Oldest WAL still needed for recovery (manifest `log_number`): the
  /// active WAL once the previous memtable flushed, the retired WAL while
  /// an imm is pending. Advanced at flush completion; guarded by mu_.
  uint64_t log_number_ = 0;

  std::multiset<SequenceNumber> snapshots_;

  std::unique_ptr<ThreadPool> background_pool_;
  bool background_scheduled_ = false;
  bool shutting_down_ = false;
  // File numbers of freshly installed tables awaiting a background scrub
  // (Options::background_scrub); one is verified per idle background cycle.
  std::deque<uint64_t> pending_scrub_;
  std::mutex error_mu_;  // leaf: the leader reads the error under write_mu_
  Status background_error_;
  // Consecutive background corruption failures where every live table still
  // verified clean (the corrupt input was already quarantined, or the rot
  // hit a not-yet-installed output). Such failures are retried; the cap
  // stops a store whose media rots every write.
  int background_corruption_retries_ = 0;

  /// Per-store atomic counters backing GetStats(). The global `storage.*`
  /// instruments below sum every store in the process; these count this
  /// store alone.
  struct StoreCounters {
    obs::Counter puts;
    obs::Counter gets;
    obs::Counter scans;
    obs::Counter memtable_flushes;
    obs::Counter compactions;
    obs::Counter write_stall_micros;
    obs::Counter bytes_flushed;
    obs::Counter bytes_compacted;
    obs::Counter wal_recovery_dropped_bytes;
    obs::Counter scrubbed_files;
    obs::Counter quarantined_files;
    obs::Counter vlog_appended_bytes;
    obs::Counter vlog_dereferences;
    obs::Counter vlog_gc_reclaimed_bytes;
  };
  StoreCounters counters_;

  /// Global `storage.*` registry instruments, resolved once at construction
  /// so the hot path never takes the registry mutex. Aggregated across all
  /// stores in the process (every node of an in-process cluster).
  struct ObsInstruments {
    obs::Counter* puts;
    obs::Counter* gets;
    obs::Counter* scans;
    obs::Counter* memtable_flushes;
    obs::Counter* bytes_flushed;
    obs::Counter* compactions;
    obs::Counter* compaction_bytes_read;
    obs::Counter* compaction_bytes_written;
    obs::Counter* write_stalls;
    obs::Counter* write_stall_micros;
    obs::LatencyHistogram* wal_append_micros;
    obs::LatencyHistogram* wal_sync_micros;
    obs::LatencyHistogram* group_commit_kvps;
    obs::Counter* wal_recovery_dropped_bytes;
    obs::Counter* scrub_files_checked;
    obs::Counter* scrub_bytes_checked;
    obs::Counter* scrub_corruption_detected;
    obs::Counter* quarantine_files;
    obs::Counter* quarantine_bytes;
    obs::Counter* vlog_appended_records;
    obs::Counter* vlog_appended_bytes;
    obs::Counter* vlog_dereferences;
    obs::Counter* vlog_gc_passes;
    obs::Counter* vlog_gc_scanned_bytes;
    obs::Counter* vlog_gc_reclaimed_bytes;
    obs::Counter* vlog_gc_rewritten_records;
  };
  ObsInstruments obs_;
};

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_KVSTORE_H_
