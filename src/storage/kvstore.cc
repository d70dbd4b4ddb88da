#include "storage/kvstore.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <map>
#include <sstream>

#include "common/logging.h"
#include "obs/attribution.h"
#include "obs/trace.h"
#include "storage/compaction_filter.h"
#include "storage/comparator.h"
#include "storage/corruption_reporter.h"
#include "storage/log_reader.h"
#include "storage/merger.h"
#include "storage/table_builder.h"

namespace iotdb {
namespace storage {

namespace {

constexpr size_t kMaxGroupCommitBytes = 1 << 20;  // 1 MiB
constexpr uint64_t kMaxOutputFileBytes = 2 << 20;  // 2 MiB per compaction out

std::string ToHex(const Slice& s) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() * 2);
  for (size_t i = 0; i < s.size(); ++i) {
    uint8_t byte = static_cast<uint8_t>(s[i]);
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool FromHex(const std::string& hex, std::string* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexValue(hex[i]);
    int lo = HexValue(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

/// Parses "<number>.<suffix>" file names.
bool ParseFileName(const std::string& name, uint64_t* number,
                   std::string* suffix) {
  size_t dot = name.find('.');
  if (dot == std::string::npos || dot == 0) return false;
  for (size_t i = 0; i < dot; ++i) {
    if (!isdigit(static_cast<unsigned char>(name[i]))) return false;
  }
  *number = strtoull(name.substr(0, dot).c_str(), nullptr, 10);
  *suffix = name.substr(dot + 1);
  return true;
}

class LogCorruptionReporter final : public log::Reader::Reporter {
 public:
  void Corruption(size_t bytes, const Status& status) override {
    IOTDB_LOG(Warn) << "WAL corruption: dropped " << bytes
                    << " bytes: " << status.ToString();
    dropped_bytes += bytes;
  }

  uint64_t dropped_bytes = 0;
};

/// Iterator wrapper that keeps memtables and tables alive while the
/// iterator exists.
class PinningIterator final : public Iterator {
 public:
  PinningIterator(std::unique_ptr<Iterator> inner,
                  std::vector<std::shared_ptr<Table>> tables,
                  std::vector<MemTable*> mems)
      : inner_(std::move(inner)),
        tables_(std::move(tables)),
        mems_(std::move(mems)) {}

  ~PinningIterator() override {
    inner_.reset();  // drop child iterators before unpinning
    for (MemTable* mem : mems_) mem->Unref();
  }

  bool Valid() const override { return inner_->Valid(); }
  void SeekToFirst() override { inner_->SeekToFirst(); }
  void SeekToLast() override { inner_->SeekToLast(); }
  void Seek(const Slice& target) override { inner_->Seek(target); }
  void Next() override { inner_->Next(); }
  void Prev() override { inner_->Prev(); }
  Slice key() const override { return inner_->key(); }
  Slice value() const override { return inner_->value(); }
  Status status() const override { return inner_->status(); }

 private:
  std::unique_ptr<Iterator> inner_;
  std::vector<std::shared_ptr<Table>> tables_;
  std::vector<MemTable*> mems_;
};

}  // namespace

struct KVStore::WriterState {
  explicit WriterState(WriteBatch* b, bool s)
      : batch(b), sync(s), done(false) {}
  WriteBatch* batch;
  bool sync;
  bool done;
  Status status;
  /// Causal identity of the op this writer belongs to, captured from the
  /// enqueueing thread while tracing. The group-commit leader commits on
  /// behalf of queued followers, so the handoff must carry the context
  /// across: the leader emits a flow-linked join event for every grouped
  /// follower whose op is traced.
  obs::TraceContext ctx;
  std::condition_variable cv;
};

KVStore::KVStore(const Options& options, const std::string& name)
    : options_(options),
      env_(options.env != nullptr ? options.env : Env::Posix()),
      dbname_(name),
      icmp_(options.comparator != nullptr ? options.comparator
                                          : BytewiseComparator()) {
  options_.env = env_;
  if (options_.comparator == nullptr) {
    options_.comparator = BytewiseComparator();
  }
  if (options_.clock == nullptr) options_.clock = Clock::Real();
  if (options_.block_cache_capacity > 0) {
    block_cache_ = std::make_unique<LruCache>(options_.block_cache_capacity);
  }
  background_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(std::max(options_.background_threads, 1)));

  auto& registry = obs::MetricsRegistry::Global();
  obs_.puts = registry.GetCounter("storage.ops.puts");
  obs_.gets = registry.GetCounter("storage.ops.gets");
  obs_.scans = registry.GetCounter("storage.ops.scans");
  obs_.memtable_flushes = registry.GetCounter("storage.memtable.flushes");
  obs_.bytes_flushed = registry.GetCounter("storage.memtable.bytes_flushed");
  obs_.compactions = registry.GetCounter("storage.compaction.count");
  obs_.compaction_bytes_read =
      registry.GetCounter("storage.compaction.bytes_read");
  obs_.compaction_bytes_written =
      registry.GetCounter("storage.compaction.bytes_written");
  obs_.write_stalls = registry.GetCounter("storage.write.stalls");
  obs_.write_stall_micros =
      registry.GetCounter("storage.write.stall_micros");
  obs_.wal_append_micros =
      registry.GetHistogram("storage.wal.append_micros");
  obs_.wal_sync_micros = registry.GetHistogram("storage.wal.sync_micros");
  obs_.group_commit_kvps =
      registry.GetHistogram("storage.wal.group_commit_kvps");
  obs_.wal_recovery_dropped_bytes =
      registry.GetCounter("storage.wal.recovery_dropped_bytes");
  obs_.scrub_files_checked =
      registry.GetCounter("storage.scrub.files_checked");
  obs_.scrub_bytes_checked =
      registry.GetCounter("storage.scrub.bytes_checked");
  obs_.scrub_corruption_detected =
      registry.GetCounter("storage.scrub.corruption_detected");
  obs_.quarantine_files = registry.GetCounter("storage.quarantine.files");
  obs_.quarantine_bytes = registry.GetCounter("storage.quarantine.bytes");
  obs_.vlog_appended_records =
      registry.GetCounter("storage.vlog.appended_records");
  obs_.vlog_appended_bytes =
      registry.GetCounter("storage.vlog.appended_bytes");
  obs_.vlog_dereferences = registry.GetCounter("storage.vlog.dereferences");
  obs_.vlog_deref_cache_hits =
      registry.GetCounter("storage.vlog.deref_cache_hits");
  obs_.vlog_deref_cache_misses =
      registry.GetCounter("storage.vlog.deref_cache_misses");
  obs_.vlog_gc_passes = registry.GetCounter("storage.vlog.gc_passes");
  obs_.vlog_gc_scanned_bytes =
      registry.GetCounter("storage.vlog.gc_scanned_bytes");
  obs_.vlog_gc_reclaimed_bytes =
      registry.GetCounter("storage.vlog.gc_reclaimed_bytes");
  obs_.vlog_gc_rewritten_records =
      registry.GetCounter("storage.vlog.gc_rewritten_records");
  obs_.vlog_recovery_dropped_pointers =
      registry.GetCounter("storage.vlog.recovery_dropped_pointers");
}

KVStore::~KVStore() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
    while (background_scheduled_) {
      background_work_finished_cv_.wait(lock);
    }
  }
  background_pool_->Shutdown();
  if (log_file_ != nullptr) log_file_->Close();
  if (mem_ != nullptr) mem_->Unref();
  if (imm_ != nullptr) imm_->Unref();
}

std::string KVStore::LogFileName(uint64_t number) const {
  char buf[32];
  snprintf(buf, sizeof(buf), "/%08" PRIu64 ".log", number);
  return dbname_ + buf;
}

std::string KVStore::TableFileName(uint64_t number) const {
  char buf[32];
  snprintf(buf, sizeof(buf), "/%08" PRIu64 ".sst", number);
  return dbname_ + buf;
}

std::string KVStore::ManifestFileName() const { return dbname_ + "/MANIFEST"; }

Result<std::unique_ptr<KVStore>> KVStore::Open(const Options& options,
                                               const std::string& name) {
  auto store = std::unique_ptr<KVStore>(new KVStore(options, name));
  IOTDB_RETURN_NOT_OK(store->Recover());
  return store;
}

Status KVStore::Destroy(const Options& options, const std::string& name) {
  Env* env = options.env != nullptr ? options.env : Env::Posix();
  auto listing = env->ListDir(name);
  if (!listing.ok()) return Status::OK();  // nothing to destroy
  for (const std::string& file : listing.ValueOrDie()) {
    // Best effort; ignore individual failures.
    env->RemoveFile(name + "/" + file).ok();
  }
  return Status::OK();
}

Status KVStore::Recover() {
  IOTDB_RETURN_NOT_OK(env_->CreateDir(dbname_));

  bool manifest_found = false;
  IOTDB_RETURN_NOT_OK(LoadManifest(&manifest_found));

  if (options_.value_separation) {
    vlog_reader_ = std::make_unique<vlog::VlogReader>(env_, dbname_,
                                                      block_cache_.get());
    // Seal any vlog file a crash left active (its valid record prefix
    // becomes a sealed file) before WAL replay dereferences pointers.
    IOTDB_RETURN_NOT_OK(RecoverVlogFiles());
  }

  mem_ = new MemTable(icmp_);
  mem_->Ref();

  // Replay every WAL not yet represented by flushed tables, oldest first:
  // one WAL chain, so file order is commit order.
  IOTDB_ASSIGN_OR_RETURN(auto files, env_->ListDir(dbname_));
  std::vector<uint64_t> logs;
  uint64_t max_file_number = next_file_number_.load(std::memory_order_relaxed);
  for (const std::string& f : files) {
    uint64_t number;
    std::string suffix;
    if (ParseFileName(f, &number, &suffix) && suffix == "log" &&
        number >= log_number_) {
      logs.push_back(number);
      max_file_number = std::max(max_file_number, number + 1);
    }
  }
  next_file_number_.store(max_file_number, std::memory_order_relaxed);
  std::sort(logs.begin(), logs.end());

  uint64_t dropped_bytes = 0;
  uint64_t dropped_pointers = 0;
  SequenceNumber max_sequence = visible_seq_.load(std::memory_order_relaxed);
  for (uint64_t number : logs) {
    IOTDB_RETURN_NOT_OK(ReplayLogFile(number, &dropped_bytes,
                                      &dropped_pointers, &max_sequence));
  }
  visible_seq_.store(max_sequence, std::memory_order_release);
  if (dropped_pointers > 0) {
    IOTDB_LOG(Warn) << "WAL replay dropped " << dropped_pointers
                    << " value pointers whose vlog records were lost";
    counters_.vlog_recovery_dropped_pointers.Add(dropped_pointers);
    if (obs::Enabled()) {
      obs_.vlog_recovery_dropped_pointers->Add(dropped_pointers);
    }
  }
  if (dropped_bytes > 0) {
    // Recovery skipped damaged regions rather than dropping them silently;
    // the counter lets the FDR warn per node.
    counters_.wal_recovery_dropped_bytes.Add(dropped_bytes);
    if (obs::Enabled()) {
      obs_.wal_recovery_dropped_bytes->Add(dropped_bytes);
    }
  }

  logfile_number_ = next_file_number_.fetch_add(1, std::memory_order_relaxed);
  IOTDB_ASSIGN_OR_RETURN(log_file_,
                         env_->NewWritableFile(LogFileName(logfile_number_)));
  log_ = std::make_unique<log::Writer>(log_file_.get());
  // The replayed entries are flushed below before any manifest records
  // this threshold, so the replayed WALs become deletable.
  log_number_ = logfile_number_;

  {
    std::unique_lock<std::mutex> lock(mu_);
    if (options_.value_separation) {
      IOTDB_RETURN_NOT_OK(OpenVlogWriterLocked());
    }
    if (mem_->NumEntries() > 0) {
      {
        std::lock_guard<std::mutex> write_lock(write_mu_);
        imm_ = mem_;
        has_imm_.store(true, std::memory_order_release);
        mem_ = new MemTable(icmp_);
        mem_->Ref();
      }
      IOTDB_RETURN_NOT_OK(FlushImmutable(&lock));
    }
    SyncL0CountLocked();
    IOTDB_RETURN_NOT_OK(WriteManifest());
    RemoveObsoleteFiles();
  }
  return Status::OK();
}

Status KVStore::ReplayLogFile(uint64_t number, uint64_t* dropped_bytes,
                              uint64_t* dropped_pointers,
                              SequenceNumber* max_sequence) {
  const std::string path = LogFileName(number);
  IOTDB_ASSIGN_OR_RETURN(auto file, env_->NewSequentialFile(path));
  LogCorruptionReporter reporter;
  log::Reader reader(file.get(), &reporter, /*checksum=*/true, path);
  Slice record;
  std::string scratch;
  while (reader.ReadRecord(&record, &scratch)) {
    if (record.size() < 12) continue;
    IOTDB_RETURN_NOT_OK(ReplayBatch(record, dropped_pointers, max_sequence));
  }
  *dropped_bytes += reporter.dropped_bytes;
  return Status::OK();
}

Status KVStore::ReplayBatch(const Slice& contents, uint64_t* dropped_pointers,
                            SequenceNumber* max_sequence) {
  // Under key-value separation a WAL record can outlive the vlog record it
  // points at (torn vlog tail, rot): a pointer that no longer dereferences
  // cleanly is dropped — the key falls back to its previous version or
  // NotFound, never to garbage bytes. The per-entry sequence numbering
  // still advances for dropped entries so surviving entries keep the exact
  // sequence the WAL assigned them.
  class Replayer final : public WriteBatch::Handler {
   public:
    Replayer(MemTable* mem, vlog::VlogReader* reader, SequenceNumber seq)
        : mem_(mem), reader_(reader), seq_(seq) {}

    void Put(const Slice& key, const Slice& value) override {
      if (reader_ != nullptr) {
        vlog::ValuePointer ptr;
        if (vlog::DecodeValuePointer(value, &ptr)) {
          std::string unused;
          if (!reader_->Get(ptr, key, &unused).ok()) {
            dropped_pointers_++;
            seq_++;
            return;
          }
        }
      }
      mem_->Add(seq_++, ValueType::kValue, key, value);
    }

    void Delete(const Slice& key) override {
      mem_->Add(seq_++, ValueType::kDeletion, key, Slice());
    }

    uint64_t dropped_pointers() const { return dropped_pointers_; }

   private:
    MemTable* const mem_;
    vlog::VlogReader* const reader_;
    SequenceNumber seq_;
    uint64_t dropped_pointers_ = 0;
  };

  WriteBatch batch;
  IOTDB_RETURN_NOT_OK(WriteBatch::SetContents(&batch, contents));
  Replayer replayer(mem_,
                    options_.value_separation ? vlog_reader_.get() : nullptr,
                    batch.sequence());
  IOTDB_RETURN_NOT_OK(batch.Iterate(&replayer));
  *dropped_pointers += replayer.dropped_pointers();
  if (batch.Count() > 0) {
    SequenceNumber last = batch.sequence() + batch.Count() - 1;
    *max_sequence = std::max(*max_sequence, last);
  }
  return Status::OK();
}

Status KVStore::OpenTable(uint64_t number, std::shared_ptr<FileMeta>* meta) {
  IOTDB_ASSIGN_OR_RETURN(auto file,
                         env_->NewRandomAccessFile(TableFileName(number)));
  uint64_t size = file->Size();
  Options table_options = options_;
  table_options.comparator = &icmp_;
  IOTDB_ASSIGN_OR_RETURN(auto table,
                         Table::Open(table_options, std::move(file),
                                     block_cache_.get(), number,
                                     TableFileName(number)));
  auto fm = std::make_shared<FileMeta>();
  fm->number = number;
  fm->file_size = size;
  fm->table = std::shared_ptr<Table>(std::move(table));
  // Recompute bounds (also validates the table end-to-end).
  auto iter = fm->table->NewIterator(ReadOptions());
  iter->SeekToFirst();
  if (iter->Valid()) {
    fm->smallest = iter->key().ToString();
    iter->SeekToLast();
    fm->largest = iter->key().ToString();
  }
  IOTDB_RETURN_NOT_OK(iter->status());
  *meta = std::move(fm);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

Status KVStore::WriteManifest() {
  std::ostringstream out;
  out << "manifest_version 1\n";
  out << "next_file " << next_file_number_.load(std::memory_order_relaxed)
      << "\n";
  out << "last_sequence " << visible_seq_.load(std::memory_order_relaxed)
      << "\n";
  out << "log_number " << log_number_ << "\n";
  out << "vlog_sep " << (options_.value_separation ? 1 : 0) << "\n";
  for (const auto& vf : vlog_files_) {
    out << "vlog " << vf.number << " " << vf.size << " " << vf.dead_bytes
        << "\n";
  }
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) {
      out << "file " << level << " " << f->number << " " << f->file_size
          << " " << ToHex(Slice(f->smallest)) << " "
          << ToHex(Slice(f->largest)) << "\n";
    }
  }
  std::string tmp = ManifestFileName() + ".tmp";
  IOTDB_RETURN_NOT_OK(env_->WriteStringToFile(tmp, Slice(out.str())));
  return env_->RenameFile(tmp, ManifestFileName());
}

Status KVStore::LoadManifest(bool* found) {
  *found = false;
  if (!env_->FileExists(ManifestFileName())) return Status::OK();
  std::string contents;
  IOTDB_RETURN_NOT_OK(env_->ReadFileToString(ManifestFileName(), &contents));
  std::istringstream in(contents);
  std::string tag;
  while (in >> tag) {
    if (tag == "manifest_version") {
      int version;
      in >> version;
      if (version != 1) return Status::Corruption("bad manifest version");
    } else if (tag == "next_file") {
      uint64_t next_file;
      in >> next_file;
      next_file_number_.store(next_file, std::memory_order_relaxed);
    } else if (tag == "last_sequence") {
      SequenceNumber last_sequence;
      in >> last_sequence;
      visible_seq_.store(last_sequence, std::memory_order_relaxed);
    } else if (tag == "log_number") {
      in >> log_number_;
    } else if (tag == "vlog_sep") {
      int sep;
      in >> sep;
      // The data format is a property of the store, not of this Open call:
      // stored pointers are meaningless without separation enabled.
      if ((sep != 0) != options_.value_separation) {
        IOTDB_LOG(Warn) << dbname_ << ": manifest value_separation="
                        << sep << " overrides Options";
        options_.value_separation = (sep != 0);
      }
    } else if (tag == "vlog") {
      vlog::VlogFileInfo vf;
      in >> vf.number >> vf.size >> vf.dead_bytes;
      vlog_files_.push_back(vf);
    } else if (tag == "file") {
      int level;
      uint64_t number, size;
      std::string smallest_hex, largest_hex;
      in >> level >> number >> size >> smallest_hex >> largest_hex;
      if (level < 0 || level >= kNumLevels) {
        return Status::Corruption("bad manifest level");
      }
      std::shared_ptr<FileMeta> meta;
      Status open_status = OpenTable(number, &meta);
      if (open_status.IsCorruption()) {
        // Better to come up without the damaged table — the cluster layer
        // re-replicates its keys from healthy peers — than to refuse to
        // open the store at all.
        QuarantinePath(TableFileName(number), open_status);
        continue;
      }
      IOTDB_RETURN_NOT_OK(open_status);
      // Trust manifest bounds if the table was empty-scanned (shouldn't
      // happen), otherwise keep recomputed bounds.
      if (meta->smallest.empty()) {
        FromHex(smallest_hex, &meta->smallest);
        FromHex(largest_hex, &meta->largest);
      }
      meta->file_size = size;
      levels_.files[level].push_back(std::move(meta));
    } else {
      return Status::Corruption("unknown manifest tag: " + tag);
    }
  }
  // Normalise ordering invariants.
  std::sort(levels_.files[0].begin(), levels_.files[0].end(),
            [](const auto& a, const auto& b) { return a->number > b->number; });
  for (int level = 1; level < kNumLevels; ++level) {
    std::sort(levels_.files[level].begin(), levels_.files[level].end(),
              [this](const auto& a, const auto& b) {
                return icmp_.Compare(Slice(a->smallest), Slice(b->smallest)) <
                       0;
              });
  }
  // Oldest vlog file first: the front is the GC tail.
  std::sort(vlog_files_.begin(), vlog_files_.end(),
            [](const auto& a, const auto& b) { return a.number < b.number; });
  SyncL0CountLocked();
  *found = true;
  return Status::OK();
}

void KVStore::RemoveObsoleteFiles() {
  std::set<uint64_t> live;
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) live.insert(f->number);
  }
  auto listing = env_->ListDir(dbname_);
  if (!listing.ok()) return;
  for (const std::string& name : listing.ValueOrDie()) {
    uint64_t number;
    std::string suffix;
    if (!ParseFileName(name, &number, &suffix)) continue;
    bool keep = true;
    if (suffix == "log") {
      keep = (number >= log_number_);
    } else if (suffix == "sst") {
      keep = (live.count(number) > 0);
    } else if (suffix == "vlog") {
      // Live set plus files awaiting deferred deletion (GC-reclaimed while
      // an iterator or snapshot may still dereference into them).
      keep = IsVlogLiveLocked(number) ||
             std::find(vlog_pending_delete_.begin(),
                       vlog_pending_delete_.end(),
                       number) != vlog_pending_delete_.end();
    }
    if (!keep) {
      env_->RemoveFile(dbname_ + "/" + name).ok();
    }
  }
}

void KVStore::SyncL0CountLocked() {
  l0_files_.store(levels_.NumFiles(0), std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Scrub & quarantine
// ---------------------------------------------------------------------------

void KVStore::QuarantinePath(const std::string& path, const Status& cause) {
  IOTDB_LOG(Error) << "quarantining corrupt file " << path << ": "
                   << cause.ToString();
  uint64_t size = 0;
  auto size_result = env_->FileSize(path);
  if (size_result.ok()) size = size_result.ValueOrDie();
  // The ".quarantined" suffix keeps the file out of every live-file scan
  // (ParseFileName no longer sees an "sst"/"log" suffix) while preserving
  // the bytes for forensics.
  Status rename = env_->RenameFile(path, path + ".quarantined");
  if (!rename.ok()) {
    IOTDB_LOG(Error) << "quarantine rename failed for " << path << ": "
                     << rename.ToString();
  }
  counters_.quarantined_files.Increment();
  if (obs::Enabled()) {
    obs_.quarantine_files->Increment();
    obs_.quarantine_bytes->Add(size);
  }
  if (options_.corruption_reporter != nullptr) {
    options_.corruption_reporter->OnQuarantine(path, cause);
  }
}

bool KVStore::QuarantineFileLocked(const std::shared_ptr<FileMeta>& meta,
                                   const Status& cause) {
  bool removed = false;
  for (int level = 0; level < kNumLevels && !removed; ++level) {
    auto& files = levels_.files[level];
    auto it = std::find(files.begin(), files.end(), meta);
    if (it != files.end()) {
      files.erase(it);
      removed = true;
    }
  }
  if (!removed) return false;  // already quarantined or compacted away
  SyncL0CountLocked();
  QuarantinePath(TableFileName(meta->number), cause);
  WriteManifest().ok();  // quarantine must survive a restart; best effort
  return true;
}

void KVStore::RecordTableScrub(uint64_t bytes, bool corrupt) {
  counters_.scrubbed_files.Increment();
  if (obs::Enabled()) {
    obs_.scrub_files_checked->Increment();
    obs_.scrub_bytes_checked->Add(bytes);
    if (corrupt) obs_.scrub_corruption_detected->Increment();
  }
}

void KVStore::QuarantineCorruptTables(std::unique_lock<std::mutex>* lock,
                                      ScrubReport* report) {
  std::vector<std::shared_ptr<FileMeta>> files;
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) files.push_back(f);
  }

  lock->unlock();
  // Tables are immutable: verify without the lock so reads and writes
  // proceed while the scrub walks checksums.
  std::vector<std::pair<std::shared_ptr<FileMeta>, Status>> corrupt;
  for (const auto& f : files) {
    uint64_t bytes = 0;
    Status s = f->table->VerifyIntegrity(&bytes);
    report->files_checked++;
    report->bytes_checked += bytes;
    RecordTableScrub(bytes, !s.ok());
    if (!s.ok()) {
      report->corrupt_files++;
      report->corrupt_paths.push_back(TableFileName(f->number));
      corrupt.emplace_back(f, s);
    }
  }
  lock->lock();

  for (const auto& [meta, cause] : corrupt) {
    if (QuarantineFileLocked(meta, cause)) report->quarantined_files++;
  }
}

bool KVStore::IsLiveTableFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) {
      if (TableFileName(f->number) == path) return true;
    }
  }
  return false;
}

Status KVStore::VerifyWalTail(uint64_t number, uint64_t* dropped_bytes) {
  const std::string path = LogFileName(number);
  IOTDB_ASSIGN_OR_RETURN(auto file, env_->NewSequentialFile(path));
  LogCorruptionReporter reporter;
  log::Reader reader(file.get(), &reporter, /*checksum=*/true, path);
  Slice record;
  std::string scratch;
  while (reader.ReadRecord(&record, &scratch)) {
  }
  *dropped_bytes += reporter.dropped_bytes;
  return Status::OK();
}

Status KVStore::VerifyIntegrity(ScrubReport* report) {
  obs::TraceSpan verify_span("storage.scrub.verify", nullptr,
                             options_.clock);
  ScrubReport local;
  ScrubReport* rep = report != nullptr ? report : &local;

  std::unique_lock<std::mutex> lock(mu_);
  {
    // Walk the live WAL tail holding the write queue with its leader
    // drained, so the flushed prefix is stable under the walk. The live
    // WAL is checked but never quarantined: its records also live in the
    // memtable, and rotation retires it naturally.
    std::unique_lock<std::mutex> write_lock(write_mu_);
    write_cv_.wait(write_lock, [this] { return !leader_active_; });
    log_file_->Flush().ok();
    IOTDB_RETURN_NOT_OK(
        VerifyWalTail(logfile_number_, &rep->wal_dropped_bytes));
    // The WAL tail walk is scrub work too: count its bytes so the paced
    // scrub accounting (and the FDR injected-vs-detected math) stays honest.
    auto wal_size = env_->FileSize(LogFileName(logfile_number_));
    if (wal_size.ok()) {
      rep->bytes_checked += wal_size.ValueOrDie();
      if (obs::Enabled()) {
        obs_.scrub_bytes_checked->Add(wal_size.ValueOrDie());
      }
    }
  }
  QuarantineCorruptTables(&lock, rep);
  if (options_.value_separation) {
    VerifyVlogFiles(&lock, rep);
  }
  return Status::OK();
}

Status KVStore::ScrubOneQueued(std::unique_lock<std::mutex>* lock) {
  std::shared_ptr<FileMeta> meta;
  while (meta == nullptr && !pending_scrub_.empty()) {
    uint64_t number = pending_scrub_.front();
    pending_scrub_.pop_front();
    for (int level = 0; level < kNumLevels && meta == nullptr; ++level) {
      for (const auto& f : levels_.files[level]) {
        if (f->number == number) {
          meta = f;
          break;
        }
      }
    }
  }
  if (meta == nullptr) return Status::OK();  // compacted away meanwhile

  lock->unlock();
  obs::TraceSpan scrub_span("storage.scrub.file", nullptr, options_.clock);
  uint64_t bytes = 0;
  Status s = meta->table->VerifyIntegrity(&bytes);
  scrub_span.SetArg("bytes", bytes);
  scrub_span.Stop();
  lock->lock();

  RecordTableScrub(bytes, !s.ok());
  if (!s.ok()) {
    QuarantineFileLocked(meta, s);
  }
  return Status::OK();  // a corrupt finding is healed, not a background error
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status KVStore::Put(const WriteOptions& options, const Slice& key,
                    const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, &batch);
}

Status KVStore::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status KVStore::BackgroundErrorSnapshot() {
  std::lock_guard<std::mutex> lock(error_mu_);
  return background_error_;
}

void KVStore::SetBackgroundError(const Status& s) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (background_error_.ok()) background_error_ = s;
}

void KVStore::WakeWriters() {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  write_cv_.notify_all();
}

Status KVStore::PutMany(const WriteOptions& options,
                        std::span<const KvEntry> entries) {
  if (entries.empty()) return Status::OK();
  WriteBatch batch;
  for (const KvEntry& e : entries) batch.Put(e.key, e.value);
  return Write(options, &batch);
}

Status KVStore::Write(const WriteOptions& options, WriteBatch* batch) {
  WriterState w(batch, options.sync || options_.wal_sync);
  const bool tracing = obs::TraceBuffer::Enabled();
  if (tracing) w.ctx = obs::CurrentTraceContext();
  // Attribution: time queued behind the group-commit leader (for a
  // follower that is the op's whole storage latency — the leader commits
  // its rows). Clock reads are gated on an installed breadcrumb so
  // unattributed ops pay only the TLS load.
  obs::OpBreadcrumb* bc = obs::CurrentBreadcrumb();
  const uint64_t queue_t0 = bc != nullptr ? options_.clock->NowMicros() : 0;

  std::unique_lock<std::mutex> lock(write_mu_);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.wait(lock);
  }
  if (w.done) {
    if (bc != nullptr) {
      obs::AddStageMicros(obs::Stage::kCommitQueueWait,
                          options_.clock->NowMicros() - queue_t0);
    }
    return w.status;
  }

  // This thread is the group-commit leader. Write stalls
  // (MakeRoomForWrite) count as queue wait too: time the op spent blocked
  // before its commit could proceed.
  bool switched = false;
  Status status = MakeRoomForWrite(&lock, &switched);
  if (bc != nullptr) {
    obs::AddStageMicros(obs::Stage::kCommitQueueWait,
                        options_.clock->NowMicros() - queue_t0);
  }
  WriterState* last_writer = &w;
  bool separated_commit = false;
  uint64_t group_commit_ts = 0;  // WAL-commit wall time, for follower links
  if (status.ok()) {
    WriteBatch* updates = BuildBatchGroup(&last_writer);
    const int batch_count = updates->Count();
    if (batch_count > 0) {
      // Only the leader (or the GC re-put, which waits it out) numbers
      // groups, so the group continues right after the published prefix.
      const SequenceNumber first_seq = VisibleSequence() + 1;
      const SequenceNumber last_seq =
          first_seq + static_cast<SequenceNumber>(batch_count) - 1;
      updates->SetSequence(first_seq);

      // The WAL append and memtable insert happen outside write_mu_: new
      // writers queue behind last_writer, and only the leader touches the
      // log. leader_active_ keeps memtable switches (and the GC re-put)
      // from pulling the memtable out from under us.
      leader_active_ = true;
      lock.unlock();
      WriteBatch* to_commit = updates;
      const uint64_t vlog_t0 =
          bc != nullptr && options_.value_separation
              ? options_.clock->NowMicros()
              : 0;
      if (options_.value_separation) {
        // Key-value separation: divert large values into the active vlog
        // file and commit a batch of pointers instead. vlog_mu_ keeps the
        // seal/roll, GC and scrub paths off the active file meanwhile.
        // The vlog bytes are flushed (synced when the commit syncs)
        // *before* the WAL record referencing them, so a replayable
        // pointer always has its record on disk.
        std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
        if (vlog_writer_ == nullptr) {
          // A previous roll failed to reopen the active file; retry.
          status = OpenVlogWriterVlogHeld();
        }
        if (status.ok()) {
          status = SeparateBatch(updates, &sep_batch_);
        }
        if (status.ok()) {
          to_commit = &sep_batch_;
          status = w.sync ? vlog_writer_->Sync() : vlog_writer_->Flush();
        }
        if (status.ok()) separated_commit = true;
      }
      if (vlog_t0 != 0) {
        obs::AddStageMicros(obs::Stage::kVlog,
                            options_.clock->NowMicros() - vlog_t0);
      }
      const bool observe = obs::Enabled();
      uint64_t t0 = (observe || tracing) ? options_.clock->NowMicros() : 0;
      if (status.ok()) {
        status = log_->AddRecord(to_commit->Contents());
      }
      uint64_t t1 = observe ? options_.clock->NowMicros() : 0;
      if (status.ok() && w.sync) {
        status = log_file_->Sync();
      } else if (status.ok()) {
        status = log_file_->Flush();
      }
      uint64_t wal_end = 0;
      if (observe || tracing) {
        // One commit, two sinks, zero extra clock reads: the histograms
        // get the append/sync split, the trace ring the whole span.
        uint64_t t2 = options_.clock->NowMicros();
        wal_end = t2;
        if (observe) {
          obs_.wal_append_micros->Record(t1 - t0);
          obs_.wal_sync_micros->Record(t2 - t1);
          obs_.group_commit_kvps->Record(
              static_cast<uint64_t>(batch_count));
        }
        obs::AddStageMicros(obs::Stage::kWalSync, t2 - t0);
        group_commit_ts = t0;
        if (tracing) {
          // Link the group commit into the leader op's trace (when it has
          // one); queued followers are flow-linked in the handoff loop
          // below.
          obs::TraceBuffer::Record("storage.wal.group_commit", t0, t2 - t0,
                                   w.ctx.valid() ? w.ctx.Child()
                                                 : obs::TraceContext());
        }
      }
      if (status.ok()) {
        status = to_commit->InsertInto(mem_);
      }
      // Publish even when the commit failed: the WAL may hold part of the
      // record, so its sequences must never be handed out again.
      visible_seq_.store(last_seq, std::memory_order_release);
      if (bc != nullptr && wal_end != 0) {
        // Commit wait: memtable insert + sequence publication, the leader
        // work after the WAL hits disk.
        obs::AddStageMicros(obs::Stage::kCommitWait,
                            options_.clock->NowMicros() - wal_end);
      }
      lock.lock();
      leader_active_ = false;
      write_cv_.notify_all();

      if (status.ok()) {
        counters_.puts.Add(static_cast<uint64_t>(batch_count));
        if (observe) obs_.puts->Add(static_cast<uint64_t>(batch_count));
      }
    }
    if (updates == &tmp_batch_) tmp_batch_.Clear();
    sep_batch_.Clear();
  }

  while (true) {
    WriterState* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      if (tracing && ready->ctx.valid() && group_commit_ts != 0) {
        // Leader handoff: this follower's rows rode the leader's group
        // commit. A zero-duration join event parented under the follower's
        // op keeps its trace flow-connected across the handoff.
        obs::TraceBuffer::Record("storage.group_commit.join",
                                 group_commit_ts, 0, ready->ctx.Child());
      }
      ready->status = status;
      ready->done = true;
      ready->cv.notify_one();
    }
    if (ready == last_writer) break;
  }
  if (!writers_.empty()) {
    writers_.front()->cv.notify_one();
  }
  lock.unlock();

  // Store-level follow-up that needs mu_ — never taken while write_mu_ is
  // held: schedule the flush of a switched-out memtable, roll the vlog.
  if (switched || separated_commit) {
    std::lock_guard<std::mutex> store_lock(mu_);
    if (separated_commit && status.ok()) {
      // A failed reopen leaves no active writer and the next leader's
      // commit retries. The committed write itself succeeded.
      Status roll = MaybeRollVlogLocked();
      if (!roll.ok()) {
        IOTDB_LOG(Error) << "vlog roll failed: " << roll.ToString();
      }
    }
    MaybeScheduleBackgroundWork();
  }
  return status;
}

WriteBatch* KVStore::BuildBatchGroup(WriterState** last_writer) {
  assert(!writers_.empty());
  WriterState* first = writers_.front();
  WriteBatch* result = first->batch;

  size_t size = first->batch->ApproximateSize();
  // Small writes get a smaller group limit to keep their latency down.
  size_t max_size = kMaxGroupCommitBytes;
  if (size <= 128 * 1024) {
    max_size = size + 128 * 1024;
  }

  *last_writer = first;
  auto iter = writers_.begin();
  ++iter;  // skip first
  for (; iter != writers_.end(); ++iter) {
    WriterState* w = *iter;
    if (w->sync && !first->sync) break;  // don't escalate sync scope
    size += w->batch->ApproximateSize();
    if (size > max_size) break;
    if (result == first->batch) {
      // Switch to the scratch batch so we don't mutate the caller's.
      result = &tmp_batch_;
      assert(result->Count() == 0);
      result->Append(*first->batch);
    }
    result->Append(*w->batch);
    *last_writer = w;
  }
  return result;
}

Status KVStore::MakeRoomForWrite(std::unique_lock<std::mutex>* write_lock,
                                 bool* switched) {
  uint64_t stall_start = 0;
  for (;;) {
    Status err = BackgroundErrorSnapshot();
    if (!err.ok()) return err;
    if (mem_->ApproximateMemoryUsage() <= options_.write_buffer_size) {
      break;
    }
    if (imm_ != nullptr) {
      // Previous memtable still flushing: stall.
      if (stall_start == 0) stall_start = options_.clock->NowMicros();
      write_cv_.wait(*write_lock);
      continue;
    }
    if (l0_files_.load(std::memory_order_acquire) >=
        static_cast<uint64_t>(options_.l0_stall_trigger)) {
      if (stall_start == 0) stall_start = options_.clock->NowMicros();
      write_cv_.wait(*write_lock);
      continue;
    }
    IOTDB_RETURN_NOT_OK(SwitchMemTable());
    // Scheduling the flush needs mu_; the leader does it after its commit,
    // with write_mu_ released (see Write).
    *switched = true;
  }
  if (stall_start != 0) {
    uint64_t stalled = options_.clock->NowMicros() - stall_start;
    counters_.write_stall_micros.Add(stalled);
    if (obs::Enabled()) {
      obs_.write_stalls->Increment();
      obs_.write_stall_micros->Add(stalled);
    }
  }
  return Status::OK();
}

Status KVStore::SwitchMemTable() {
  assert(imm_ == nullptr);
  // Start a fresh WAL for the new memtable.
  uint64_t new_log_number =
      next_file_number_.fetch_add(1, std::memory_order_relaxed);
  IOTDB_ASSIGN_OR_RETURN(auto new_log_file,
                         env_->NewWritableFile(LogFileName(new_log_number)));
  if (log_file_ != nullptr) log_file_->Close();
  log_file_ = std::move(new_log_file);
  log_ = std::make_unique<log::Writer>(log_file_.get());
  logfile_number_ = new_log_number;
  // log_number_ is NOT advanced here: the outgoing memtable's records live
  // in the old WAL until FlushImmutable installs their table.

  imm_ = mem_;
  has_imm_.store(true, std::memory_order_release);
  mem_ = new MemTable(icmp_);
  mem_->Ref();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Background flush & compaction
// ---------------------------------------------------------------------------

void KVStore::MaybeScheduleBackgroundWork() {
  if (background_scheduled_ || shutting_down_) return;
  if (!has_imm_.load(std::memory_order_acquire) && !NeedsCompaction() &&
      pending_scrub_.empty() && pending_vlog_scrub_.empty() &&
      !NeedsVlogGcLocked()) {
    return;
  }
  background_scheduled_ = true;
  background_pool_->Submit([this] { BackgroundCall(); });
}

void KVStore::BackgroundCall() {
  std::unique_lock<std::mutex> lock(mu_);
  assert(background_scheduled_);
  if (!shutting_down_) {
    Status s;
    if (has_imm_.load(std::memory_order_acquire)) {
      s = FlushImmutable(&lock);
    } else if (NeedsCompaction()) {
      s = RunCompaction(&lock);
    } else if (!pending_scrub_.empty()) {
      // Idle cycle: pace the background scrubber between compactions.
      s = ScrubOneQueued(&lock);
    } else if (!pending_vlog_scrub_.empty()) {
      s = ScrubOneVlogQueued(&lock);
    } else if (NeedsVlogGcLocked()) {
      // One tail file per idle cycle, paced like the background scrub.
      s = GarbageCollectLocked(&lock, /*chunk_size=*/1, nullptr);
    }
    if (!s.ok()) {
      IOTDB_LOG(Error) << "background work failed: " << s.ToString();
      if (s.IsCorruption()) {
        // A corrupt input must not poison the store forever: quarantine
        // whatever fails verification and let the retry run against the
        // survivors. Zero quarantines means every live table is clean —
        // the corrupt input was already quarantined out from under this
        // work unit (e.g. by a concurrent scrub), so a retry succeeds;
        // bounded, because rot that keeps reappearing on clean tables
        // means the media corrupts faster than we can quarantine.
        ScrubReport report;
        QuarantineCorruptTables(&lock, &report);
        if (report.quarantined_files > 0) {
          background_corruption_retries_ = 0;
        } else if (++background_corruption_retries_ > 3) {
          SetBackgroundError(s);
        }
      } else {
        SetBackgroundError(s);
      }
    } else {
      background_corruption_retries_ = 0;
    }
  }
  background_scheduled_ = false;
  MaybeScheduleBackgroundWork();
  background_work_finished_cv_.notify_all();
  lock.unlock();
  WakeWriters();
}

Status KVStore::FlushImmutable(std::unique_lock<std::mutex>* lock) {
  MemTable* imm;
  uint64_t wal_number;
  {
    std::lock_guard<std::mutex> write_lock(write_mu_);
    imm = imm_;
    // The active WAL started exactly when this imm was switched out, so
    // everything the imm holds lives in older WALs. No switch can
    // interleave with the flush: switching needs imm_ == null.
    wal_number = logfile_number_;
  }
  if (imm == nullptr) return Status::OK();
  uint64_t file_number =
      next_file_number_.fetch_add(1, std::memory_order_relaxed);

  lock->unlock();
  obs::TraceSpan flush_span("storage.flush", nullptr, options_.clock);
  // The immutable memtable cannot change; build its table without the lock.
  Status s;
  std::shared_ptr<FileMeta> meta;
  {
    Options table_options = options_;
    table_options.comparator = &icmp_;
    auto file_result = env_->NewWritableFile(TableFileName(file_number));
    if (!file_result.ok()) {
      s = file_result.status();
    } else {
      auto file = std::move(file_result).MoveValueUnsafe();
      TableBuilder builder(table_options, file.get());
      auto iter = imm->NewIterator();
      for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        builder.Add(iter->key(), iter->value());
      }
      if (builder.NumEntries() > 0) {
        s = builder.Finish();
        if (s.ok()) s = file->Sync();
        if (s.ok()) s = file->Close();
        if (s.ok()) s = OpenTable(file_number, &meta);
      } else {
        builder.Abandon();
        file->Close();
        env_->RemoveFile(TableFileName(file_number)).ok();
      }
    }
  }
  if (meta != nullptr) flush_span.SetArg("bytes", meta->file_size);
  flush_span.Stop();
  lock->lock();

  if (!s.ok()) return s;
  if (meta != nullptr) {
    // Newest L0 file goes first.
    levels_.files[0].insert(levels_.files[0].begin(), meta);
    SyncL0CountLocked();
    counters_.memtable_flushes.Increment();
    counters_.bytes_flushed.Add(meta->file_size);
    if (obs::Enabled()) {
      obs_.memtable_flushes->Increment();
      obs_.bytes_flushed->Add(meta->file_size);
    }
    if (options_.background_scrub) pending_scrub_.push_back(meta->number);
  }
  // Advance the WAL threshold only now that the table is installed in the
  // version set: a manifest written by any mu_ holder sees either the old
  // threshold (and keeps the flushed records' WAL) or the new one plus the
  // table.
  log_number_ = wal_number;
  {
    std::lock_guard<std::mutex> write_lock(write_mu_);
    imm_ = nullptr;
    has_imm_.store(false, std::memory_order_release);
    write_cv_.notify_all();
  }
  imm->Unref();
  IOTDB_RETURN_NOT_OK(WriteManifest());
  RemoveObsoleteFiles();
  return Status::OK();
}

bool KVStore::NeedsCompaction() const {
  if (levels_.NumFiles(0) >=
      static_cast<uint64_t>(options_.l0_compaction_trigger)) {
    return true;
  }
  for (int level = 1; level < kNumLevels - 1; ++level) {
    if (levels_.LevelBytes(level) > MaxBytesForLevel(level)) return true;
  }
  return false;
}

std::vector<std::shared_ptr<FileMeta>> KVStore::FilesOverlappingRange(
    int level, const Slice& begin_user_key,
    const Slice& end_user_key) const {
  std::vector<std::shared_ptr<FileMeta>> result;
  for (const auto& f : levels_.files[level]) {
    if (FileOverlapsRange(icmp_, *f, begin_user_key, end_user_key)) {
      result.push_back(f);
    }
  }
  return result;
}

bool KVStore::IsBaseLevelForKey(int output_level,
                                const Slice& user_key) const {
  const Comparator* ucmp = icmp_.user_comparator();
  for (int level = output_level + 1; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) {
      if (ucmp->Compare(user_key, ExtractUserKey(Slice(f->smallest))) >= 0 &&
          ucmp->Compare(user_key, ExtractUserKey(Slice(f->largest))) <= 0) {
        return false;
      }
    }
  }
  return true;
}

Status KVStore::RunCompaction(std::unique_lock<std::mutex>* lock) {
  // Pick the compaction level.
  int level = -1;
  if (levels_.NumFiles(0) >=
      static_cast<uint64_t>(options_.l0_compaction_trigger)) {
    level = 0;
  } else {
    for (int l = 1; l < kNumLevels - 1; ++l) {
      if (levels_.LevelBytes(l) > MaxBytesForLevel(l)) {
        level = l;
        break;
      }
    }
  }
  if (level < 0) return Status::OK();
  return RunCompactionAtLevel(level, lock);
}

Status KVStore::RunCompactionAtLevel(int level,
                                     std::unique_lock<std::mutex>* lock) {
  if (levels_.files[level].empty()) return Status::OK();
  // Level inputs: all of L0 (ranges overlap), or the first file of a deeper
  // level (round-robin would be fairer; first-file is adequate here because
  // the IoT workload appends mostly-ascending keys).
  std::vector<std::shared_ptr<FileMeta>> inputs;
  if (level == 0) {
    inputs = levels_.files[0];
  } else {
    inputs.push_back(levels_.files[level].front());
  }
  assert(!inputs.empty());

  // Compute the user-key range of the inputs.
  const Comparator* ucmp = icmp_.user_comparator();
  std::string begin = ExtractUserKey(Slice(inputs[0]->smallest)).ToString();
  std::string end = ExtractUserKey(Slice(inputs[0]->largest)).ToString();
  for (const auto& f : inputs) {
    Slice s = ExtractUserKey(Slice(f->smallest));
    Slice l = ExtractUserKey(Slice(f->largest));
    if (ucmp->Compare(s, Slice(begin)) < 0) begin = s.ToString();
    if (ucmp->Compare(l, Slice(end)) > 0) end = l.ToString();
  }

  const int output_level = level + 1;
  std::vector<std::shared_ptr<FileMeta>> next_inputs =
      FilesOverlappingRange(output_level, Slice(begin), Slice(end));

  // Trivial move: a single input with no overlap below. Disallowed when a
  // compaction filter is configured — the file must be rewritten so the
  // filter sees its entries.
  if (inputs.size() == 1 && next_inputs.empty() &&
      options_.compaction_filter == nullptr) {
    auto moved = inputs[0];
    auto& src = levels_.files[level];
    src.erase(std::remove(src.begin(), src.end(), moved), src.end());
    auto& dst = levels_.files[output_level];
    auto pos = std::lower_bound(
        dst.begin(), dst.end(), moved, [this](const auto& a, const auto& b) {
          return icmp_.Compare(Slice(a->smallest), Slice(b->smallest)) < 0;
        });
    dst.insert(pos, moved);
    SyncL0CountLocked();
    counters_.compactions.Increment();
    if (obs::Enabled()) obs_.compactions->Increment();
    IOTDB_RETURN_NOT_OK(WriteManifest());
    return Status::OK();
  }

  SequenceNumber smallest_snapshot = SmallestSnapshot();

  std::vector<std::shared_ptr<FileMeta>> all_inputs = inputs;
  all_inputs.insert(all_inputs.end(), next_inputs.begin(), next_inputs.end());

  lock->unlock();
  obs::TraceSpan compaction_span("storage.compaction", nullptr,
                                 options_.clock);
  // Merge outside the lock: input tables are immutable.
  Status s;
  std::vector<std::shared_ptr<FileMeta>> outputs;
  uint64_t bytes_read = 0;
  // Dead-byte estimates learned from dropped value pointers; applied to the
  // vlog bookkeeping at install time (under mu_) to gate background GC.
  std::map<uint64_t, uint64_t> vlog_dead;
  {
    std::vector<std::unique_ptr<Iterator>> children;
    for (const auto& f : all_inputs) {
      children.push_back(f->table->NewIterator(ReadOptions()));
      bytes_read += f->file_size;
    }
    auto merged = NewMergingIterator(&icmp_, std::move(children));

    Options table_options = options_;
    table_options.comparator = &icmp_;

    std::unique_ptr<WritableFile> out_file;
    std::unique_ptr<TableBuilder> builder;
    uint64_t out_number = 0;
    std::string current_user_key;
    bool has_current_user_key = false;
    SequenceNumber last_sequence_for_key = kMaxSequenceNumber;

    auto finish_output = [&]() -> Status {
      if (builder == nullptr) return Status::OK();
      uint64_t entries = builder->NumEntries();
      Status fs = builder->Finish();
      if (fs.ok()) fs = out_file->Sync();
      if (fs.ok()) fs = out_file->Close();
      builder.reset();
      out_file.reset();
      if (fs.ok() && entries > 0) {
        std::shared_ptr<FileMeta> meta;
        fs = OpenTable(out_number, &meta);
        if (fs.ok()) outputs.push_back(std::move(meta));
      }
      return fs;
    };

    for (merged->SeekToFirst(); s.ok() && merged->Valid(); merged->Next()) {
      Slice key = merged->key();
      ParsedInternalKey ikey;
      bool drop = false;
      if (!ParseInternalKey(key, &ikey)) {
        // Keep unparsable keys verbatim (mirrors LevelDB's safety choice).
        current_user_key.clear();
        has_current_user_key = false;
        last_sequence_for_key = kMaxSequenceNumber;
      } else {
        if (!has_current_user_key ||
            ucmp->Compare(ikey.user_key, Slice(current_user_key)) != 0) {
          current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
          has_current_user_key = true;
          last_sequence_for_key = kMaxSequenceNumber;
        }
        const bool newest_of_key =
            (last_sequence_for_key == kMaxSequenceNumber);
        if (last_sequence_for_key <= smallest_snapshot) {
          drop = true;  // shadowed by a newer entry of the same key
        } else if (ikey.type == ValueType::kDeletion &&
                   ikey.sequence <= smallest_snapshot &&
                   IsBaseLevelForKey(output_level, ikey.user_key)) {
          drop = true;  // tombstone with nothing underneath
        } else if (newest_of_key && ikey.type == ValueType::kValue &&
                   ikey.sequence <= smallest_snapshot &&
                   options_.compaction_filter != nullptr &&
                   IsBaseLevelForKey(output_level, ikey.user_key) &&
                   options_.compaction_filter->ShouldDrop(ikey.user_key,
                                                          merged->value())) {
          // Retention: the filter ages the entry out. Older versions in
          // this compaction fall to the shadowing rule; deeper levels hold
          // none (base-level check).
          drop = true;
        }
        last_sequence_for_key = ikey.sequence;
      }

      if (drop) {
        if (options_.value_separation) {
          vlog::ValuePointer ptr;
          if (vlog::DecodeValuePointer(merged->value(), &ptr)) {
            vlog_dead[ptr.file_no] += ptr.size;
          }
        }
        continue;
      }

      if (builder == nullptr) {
        out_number = next_file_number_.fetch_add(1, std::memory_order_relaxed);
        auto file_result = env_->NewWritableFile(TableFileName(out_number));
        if (!file_result.ok()) {
          s = file_result.status();
          break;
        }
        out_file = std::move(file_result).MoveValueUnsafe();
        builder = std::make_unique<TableBuilder>(table_options,
                                                 out_file.get());
      }
      builder->Add(key, merged->value());
      if (builder->FileSize() >= kMaxOutputFileBytes) {
        s = finish_output();
      }
    }
    if (s.ok()) s = merged->status();
    if (s.ok()) {
      s = finish_output();
    } else if (builder != nullptr) {
      builder->Abandon();
    }
  }
  compaction_span.SetArg("bytes_read", bytes_read);
  compaction_span.Stop();
  lock->lock();

  if (!s.ok()) return s;

  // Install: drop inputs, insert outputs sorted by smallest key.
  for (int l : {level, output_level}) {
    auto& files = levels_.files[l];
    files.erase(std::remove_if(files.begin(), files.end(),
                               [&](const std::shared_ptr<FileMeta>& f) {
                                 return std::find(all_inputs.begin(),
                                                  all_inputs.end(),
                                                  f) != all_inputs.end();
                               }),
                files.end());
  }
  auto& dst = levels_.files[output_level];
  for (auto& out : outputs) {
    auto pos = std::lower_bound(
        dst.begin(), dst.end(), out, [this](const auto& a, const auto& b) {
          return icmp_.Compare(Slice(a->smallest), Slice(b->smallest)) < 0;
        });
    dst.insert(pos, out);
    counters_.bytes_compacted.Add(out->file_size);
    if (obs::Enabled()) obs_.compaction_bytes_written->Add(out->file_size);
    if (options_.background_scrub) pending_scrub_.push_back(out->number);
  }
  SyncL0CountLocked();
  counters_.compactions.Increment();
  counters_.bytes_compacted.Add(bytes_read);
  if (obs::Enabled()) {
    obs_.compactions->Increment();
    obs_.compaction_bytes_read->Add(bytes_read);
  }
  for (const auto& [file_no, dead] : vlog_dead) {
    for (auto& vf : vlog_files_) {
      if (vf.number == file_no) {
        vf.dead_bytes = std::min(vf.size, vf.dead_bytes + dead);
        break;
      }
    }
  }
  IOTDB_RETURN_NOT_OK(WriteManifest());
  RemoveObsoleteFiles();
  return Status::OK();
}

SequenceNumber KVStore::SmallestSnapshot() const {
  if (snapshots_.empty()) return visible_seq_.load(std::memory_order_acquire);
  return *snapshots_.begin();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

namespace {

struct GetState {
  const InternalKeyComparator* icmp;
  Slice user_key;
  SequenceNumber snapshot;

  bool found = false;
  SequenceNumber best_sequence = 0;
  bool is_deletion = false;
  std::string value;
};

void GetHandler(void* arg, const Slice& internal_key, const Slice& v) {
  GetState* state = static_cast<GetState*>(arg);
  ParsedInternalKey parsed;
  if (!ParseInternalKey(internal_key, &parsed)) return;
  if (state->icmp->user_comparator()->Compare(parsed.user_key,
                                              state->user_key) != 0) {
    return;
  }
  if (parsed.sequence > state->snapshot) return;
  if (state->found && parsed.sequence <= state->best_sequence) return;
  state->found = true;
  state->best_sequence = parsed.sequence;
  state->is_deletion = (parsed.type == ValueType::kDeletion);
  if (!state->is_deletion) state->value.assign(v.data(), v.size());
}

}  // namespace

Result<std::string> KVStore::Get(const ReadOptions& options,
                                 const Slice& key) {
  MemTable* mem;
  MemTable* imm;
  std::vector<std::shared_ptr<FileMeta>> candidates;
  counters_.gets.Increment();
  if (obs::Enabled()) obs_.gets->Increment();
  // Snapshot before pinning any source: the visible prefix only grows, so
  // a memtable pinned afterwards holds every entry <= snapshot it ever
  // will (entries published later carry larger sequences and filter out).
  const SequenceNumber snapshot = VisibleSequence();
  // Under separation, pin the read so GC defers physical deletion of vlog
  // files this lookup may still dereference into (local classes share the
  // enclosing member function's access).
  struct ReadPin {
    KVStore* store = nullptr;
    ~ReadPin() {
      if (store != nullptr) store->OnIteratorClosed();
    }
  } pin;
  {
    std::lock_guard<std::mutex> write_lock(write_mu_);
    mem = mem_;
    mem->Ref();
    imm = imm_;
    if (imm != nullptr) imm->Ref();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int level = 0; level < kNumLevels; ++level) {
      for (const auto& f : levels_.files[level]) {
        if (FileOverlapsRange(icmp_, *f, key, key)) {
          candidates.push_back(f);
        }
      }
    }
    if (options_.value_separation) {
      open_readers_++;
      pin.store = this;
    }
  }

  std::string value;
  Status s;
  Result<std::string> result = Status::NotFound("key not found");
  bool done = false;
  if (mem->Get(key, snapshot, &value, &s)) {
    result = s.ok() ? Result<std::string>(std::move(value))
                    : Result<std::string>(s);
    done = true;
  } else if (imm != nullptr && imm->Get(key, snapshot, &value, &s)) {
    result = s.ok() ? Result<std::string>(std::move(value))
                    : Result<std::string>(s);
    done = true;
  }
  mem->Unref();
  if (imm != nullptr) imm->Unref();
  if (done) {
    if (result.ok() && options_.value_separation) {
      std::string raw = std::move(result).MoveValueUnsafe();
      IOTDB_RETURN_NOT_OK(MaterializeValue(key, &raw));
      return raw;
    }
    return result;
  }

  GetState state;
  state.icmp = &icmp_;
  state.user_key = key;
  state.snapshot = snapshot;
  std::string lookup_key = MakeLookupKey(key, snapshot);
  for (const auto& f : candidates) {
    Status ts = f->table->InternalGet(options, Slice(lookup_key), &state,
                                      GetHandler);
    if (!ts.ok()) {
      if (ts.IsCorruption()) {
        // Evict the damaged table right away so it never serves another
        // read; the caller still sees the corruption and can fail over to
        // a healthy replica.
        std::lock_guard<std::mutex> lock(mu_);
        QuarantineFileLocked(f, ts);
      }
      return ts;
    }
  }
  if (!state.found || state.is_deletion) {
    return Status::NotFound("key not found");
  }
  if (options_.value_separation) {
    IOTDB_RETURN_NOT_OK(MaterializeValue(key, &state.value));
  }
  return std::move(state.value);
}

std::unique_ptr<Iterator> KVStore::NewInternalIterator(
    const ReadOptions& options,
    std::vector<std::shared_ptr<Table>>* pinned_tables,
    std::vector<MemTable*>* pinned_mems) {
  std::vector<std::unique_ptr<Iterator>> children;
  // Newest sources first so the merger prefers them on ties. The caller's
  // snapshot (taken before this runs) filters out entries published after
  // it.
  {
    std::lock_guard<std::mutex> write_lock(write_mu_);
    children.push_back(mem_->NewIterator());
    mem_->Ref();
    pinned_mems->push_back(mem_);
    if (imm_ != nullptr) {
      children.push_back(imm_->NewIterator());
      imm_->Ref();
      pinned_mems->push_back(imm_);
    }
  }
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) {
      children.push_back(f->table->NewIterator(options));
      pinned_tables->push_back(f->table);
    }
  }
  return NewMergingIterator(&icmp_, std::move(children));
}

/// Lazily dereferences value pointers for iteration: keys stream straight
/// from the LSM; the vlog record is only read when value() is called.
/// A failed dereference surfaces through status() and yields an empty
/// value. Registered with the store so GC defers physical deletion of
/// reclaimed vlog files while any iterator might still point into them.
class VlogDerefIterator final : public Iterator {
 public:
  VlogDerefIterator(KVStore* store, std::unique_ptr<Iterator> inner)
      : store_(store), inner_(std::move(inner)) {}

  ~VlogDerefIterator() override {
    inner_.reset();
    store_->OnIteratorClosed();
  }

  bool Valid() const override { return inner_->Valid(); }
  void SeekToFirst() override {
    inner_->SeekToFirst();
    materialized_valid_ = false;
  }
  void SeekToLast() override {
    inner_->SeekToLast();
    materialized_valid_ = false;
  }
  void Seek(const Slice& target) override {
    inner_->Seek(target);
    materialized_valid_ = false;
  }
  void Next() override {
    inner_->Next();
    materialized_valid_ = false;
  }
  void Prev() override {
    inner_->Prev();
    materialized_valid_ = false;
  }
  Slice key() const override { return inner_->key(); }

  Slice value() const override {
    if (!materialized_valid_) {
      materialized_ = inner_->value().ToString();
      Status s = store_->MaterializeValue(inner_->key(), &materialized_);
      if (!s.ok()) {
        if (deref_status_.ok()) deref_status_ = s;
        materialized_.clear();
      }
      materialized_valid_ = true;
    }
    return materialized_;
  }

  Status status() const override {
    if (!deref_status_.ok()) return deref_status_;
    return inner_->status();
  }

 private:
  KVStore* const store_;
  std::unique_ptr<Iterator> inner_;
  mutable std::string materialized_;
  mutable bool materialized_valid_ = false;
  mutable Status deref_status_;
};

std::unique_ptr<Iterator> KVStore::NewIterator(const ReadOptions& options) {
  std::vector<std::shared_ptr<Table>> pinned_tables;
  std::vector<MemTable*> pinned_mems;
  // Snapshot before pinning sources (see Get for the ordering argument).
  const SequenceNumber snapshot = VisibleSequence();
  std::unique_ptr<Iterator> internal;
  bool separated = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    internal = NewInternalIterator(options, &pinned_tables, &pinned_mems);
    if (options_.value_separation) {
      open_readers_++;
      separated = true;
    }
  }
  auto db_iter = NewDBIterator(&icmp_, std::move(internal), snapshot);
  auto pinned = std::make_unique<PinningIterator>(
      std::move(db_iter), std::move(pinned_tables), std::move(pinned_mems));
  if (separated) {
    return std::make_unique<VlogDerefIterator>(this, std::move(pinned));
  }
  return pinned;
}

Status KVStore::Scan(const ReadOptions& options, const Slice& start,
                     const Slice& end_exclusive, size_t limit,
                     std::vector<std::pair<std::string, std::string>>* out) {
  counters_.scans.Increment();
  if (obs::Enabled()) obs_.scans->Increment();
  auto iter = NewIterator(options);
  const Comparator* ucmp = icmp_.user_comparator();
  for (start.empty() ? iter->SeekToFirst() : iter->Seek(start);
       iter->Valid(); iter->Next()) {
    if (!end_exclusive.empty() &&
        ucmp->Compare(iter->key(), end_exclusive) >= 0) {
      break;
    }
    out->emplace_back(iter->key().ToString(), iter->value().ToString());
    if (limit > 0 && out->size() >= limit) break;
  }
  return iter->status();
}

SequenceNumber KVStore::GetSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  const SequenceNumber snapshot = VisibleSequence();
  snapshots_.insert(snapshot);
  return snapshot;
}

void KVStore::ReleaseSnapshot(SequenceNumber snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = snapshots_.find(snapshot);
  if (it != snapshots_.end()) snapshots_.erase(it);
  MaybeDeleteVlogFilesLocked();
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

Status KVStore::FlushMemTable() {
  {
    // Switch the memtable out once any pending flush and in-flight leader
    // are done with it.
    std::unique_lock<std::mutex> write_lock(write_mu_);
    while (mem_->NumEntries() > 0 &&
           (imm_ != nullptr || leader_active_)) {
      Status err = BackgroundErrorSnapshot();
      if (!err.ok()) return err;
      write_cv_.wait(write_lock);
    }
    if (mem_->NumEntries() > 0) IOTDB_RETURN_NOT_OK(SwitchMemTable());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    MaybeScheduleBackgroundWork();
  }
  // Wait for the background thread to drain the imm.
  std::unique_lock<std::mutex> write_lock(write_mu_);
  while (imm_ != nullptr && BackgroundErrorSnapshot().ok()) {
    write_cv_.wait(write_lock);
  }
  return BackgroundErrorSnapshot();
}

Status KVStore::CompactAll() {
  IOTDB_RETURN_NOT_OK(FlushMemTable());
  std::unique_lock<std::mutex> lock(mu_);
  while (background_scheduled_) {
    background_work_finished_cv_.wait(lock);
  }
  // Claim the background slot so no concurrent compaction interferes.
  background_scheduled_ = true;
  Status s;
  for (int level = 0; s.ok() && level < kNumLevels - 1; ++level) {
    while (s.ok() && !levels_.files[level].empty()) {
      s = RunCompactionAtLevel(level, &lock);
    }
  }
  background_scheduled_ = false;
  MaybeScheduleBackgroundWork();
  background_work_finished_cv_.notify_all();
  lock.unlock();
  WakeWriters();  // L0 stall waiters: the level counts changed
  return s;
}

void KVStore::WaitForBackgroundWork() {
  std::unique_lock<std::mutex> lock(mu_);
  while (background_scheduled_ || has_imm_.load(std::memory_order_acquire)) {
    background_work_finished_cv_.wait(lock);
  }
}

KVStoreStats KVStore::GetStats() {
  KVStoreStats stats;
  stats.puts = counters_.puts.Value();
  stats.gets = counters_.gets.Value();
  stats.scans = counters_.scans.Value();
  stats.memtable_flushes = counters_.memtable_flushes.Value();
  stats.compactions = counters_.compactions.Value();
  stats.write_stall_micros = counters_.write_stall_micros.Value();
  stats.bytes_flushed = counters_.bytes_flushed.Value();
  stats.bytes_compacted = counters_.bytes_compacted.Value();
  stats.wal_recovery_dropped_bytes =
      counters_.wal_recovery_dropped_bytes.Value();
  stats.scrubbed_files = counters_.scrubbed_files.Value();
  stats.quarantined_files = counters_.quarantined_files.Value();
  stats.vlog_appended_bytes = counters_.vlog_appended_bytes.Value();
  stats.vlog_dereferences = counters_.vlog_dereferences.Value();
  stats.vlog_gc_reclaimed_bytes = counters_.vlog_gc_reclaimed_bytes.Value();
  stats.vlog_recovery_dropped_pointers =
      counters_.vlog_recovery_dropped_pointers.Value();
  {
    // The level file lists and vlog set still need the store mutex.
    std::lock_guard<std::mutex> lock(mu_);
    for (int level = 0; level < kNumLevels; ++level) {
      stats.num_files[level] = static_cast<int>(levels_.NumFiles(level));
      stats.level_bytes[level] = levels_.LevelBytes(level);
    }
    std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
    stats.vlog_files =
        vlog_files_.size() + (vlog_writer_ != nullptr ? 1 : 0);
  }
  if (block_cache_ != nullptr) {
    stats.block_cache_hits = block_cache_->hits();
    stats.block_cache_misses = block_cache_->misses();
  }
  return stats;
}

uint64_t KVStore::CountKeysSlow() {
  auto iter = NewIterator(ReadOptions());
  uint64_t n = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Key-value separation (vlog)
// ---------------------------------------------------------------------------

std::string KVStore::VlogName(uint64_t number) const {
  return vlog::VlogFileName(dbname_, number);
}

Status KVStore::RecoverVlogFiles() {
  // Vlog files on disk that the manifest does not list as sealed: at most
  // one should exist in practice — the file that was active when the
  // previous incarnation died. Seal it at its valid record prefix; WAL
  // replay drops any pointer past that prefix (torn tail).
  IOTDB_ASSIGN_OR_RETURN(auto files, env_->ListDir(dbname_));
  for (const std::string& name : files) {
    uint64_t number;
    std::string suffix;
    if (!ParseFileName(name, &number, &suffix) || suffix != "vlog") continue;
    bool known = false;
    for (const auto& vf : vlog_files_) {
      if (vf.number == number) {
        known = true;
        break;
      }
    }
    if (known) continue;
    std::string contents;
    IOTDB_RETURN_NOT_OK(
        env_->ReadFileToString(dbname_ + "/" + name, &contents));
    Slice input(contents);
    uint64_t valid = 0;
    while (!input.empty()) {
      Slice key, value;
      uint32_t record_size = 0;
      if (!vlog::ParseRecord(&input, &key, &value, &record_size).ok()) break;
      valid += record_size;
    }
    if (valid == 0) {
      env_->RemoveFile(dbname_ + "/" + name).ok();
      continue;
    }
    if (valid < contents.size()) {
      IOTDB_LOG(Warn) << dbname_ << ": sealing crashed vlog " << name
                      << " at " << valid << "/" << contents.size()
                      << " valid bytes";
    }
    vlog_files_.push_back(vlog::VlogFileInfo{number, valid, 0});
  }
  std::sort(vlog_files_.begin(), vlog_files_.end(),
            [](const auto& a, const auto& b) { return a.number < b.number; });
  for (const auto& vf : vlog_files_) {
    // Recovery is single-threaded; a plain max-update suffices.
    if (vf.number + 1 > next_file_number_.load(std::memory_order_relaxed)) {
      next_file_number_.store(vf.number + 1, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

Status KVStore::OpenVlogWriterLocked() {
  std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
  return OpenVlogWriterVlogHeld();
}

Status KVStore::OpenVlogWriterVlogHeld() {
  uint64_t number = next_file_number_.fetch_add(1, std::memory_order_relaxed);
  IOTDB_ASSIGN_OR_RETURN(auto file, env_->NewWritableFile(VlogName(number)));
  vlog_writer_ =
      std::make_unique<vlog::VlogWriter>(std::move(file), number, 0);
  return Status::OK();
}

Status KVStore::SealActiveVlogLocked() {
  // Called with mu_ held. vlog_mu_ excludes concurrent leader appends for
  // the duration of the seal.
  uint64_t number;
  uint64_t size;
  {
    std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
    if (vlog_writer_ == nullptr) return Status::OK();
    IOTDB_RETURN_NOT_OK(vlog_writer_->Sync());
    number = vlog_writer_->file_no();
    size = vlog_writer_->offset();
    vlog_writer_.reset();
  }
  if (size == 0) {
    // Nothing was ever written: drop the empty file instead of sealing it.
    env_->RemoveFile(VlogName(number)).ok();
    return Status::OK();
  }
  vlog_files_.push_back(vlog::VlogFileInfo{number, size, 0});
  if (options_.background_scrub) pending_vlog_scrub_.push_back(number);
  return Status::OK();
}

Status KVStore::MaybeRollVlogLocked() {
  {
    std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
    if (vlog_writer_ == nullptr ||
        vlog_writer_->offset() < options_.vlog_file_size) {
      return Status::OK();
    }
  }
  IOTDB_RETURN_NOT_OK(SealActiveVlogLocked());
  IOTDB_RETURN_NOT_OK(OpenVlogWriterLocked());
  IOTDB_RETURN_NOT_OK(WriteManifest());
  MaybeScheduleBackgroundWork();  // the sealed file queued a scrub
  return Status::OK();
}

Status KVStore::SeparateBatch(WriteBatch* updates, WriteBatch* out) {
  // Called under vlog_mu_ by the commit leader. Values at or above
  // min_value_size divert into the active vlog; everything the LSM stores
  // carries a one-byte tag so inline values and pointers coexist.
  class Separator final : public WriteBatch::Handler {
   public:
    Separator(KVStore* store, WriteBatch* out) : store_(store), out_(out) {}

    void Put(const Slice& key, const Slice& value) override {
      stored_.clear();
      if (value.size() >= store_->options_.min_value_size) {
        vlog::ValuePointer ptr;
        Status s = store_->vlog_writer_->Add(key, value, &ptr);
        if (!s.ok()) {
          if (status_.ok()) status_ = s;
          return;
        }
        vlog::EncodeValuePointer(&stored_, ptr);
        separated_records_++;
        separated_bytes_ += ptr.size;
      } else {
        stored_.reserve(value.size() + 1);
        stored_.push_back(vlog::kInlineTag);
        stored_.append(value.data(), value.size());
      }
      out_->Put(key, Slice(stored_));
    }

    void Delete(const Slice& key) override { out_->Delete(key); }

    const Status& status() const { return status_; }
    uint64_t separated_records() const { return separated_records_; }
    uint64_t separated_bytes() const { return separated_bytes_; }

   private:
    KVStore* const store_;
    WriteBatch* const out_;
    std::string stored_;
    Status status_;
    uint64_t separated_records_ = 0;
    uint64_t separated_bytes_ = 0;
  };

  out->Clear();
  Separator sep(this, out);
  IOTDB_RETURN_NOT_OK(updates->Iterate(&sep));
  IOTDB_RETURN_NOT_OK(sep.status());
  out->SetSequence(updates->sequence());
  if (sep.separated_records() > 0) {
    counters_.vlog_appended_bytes.Add(sep.separated_bytes());
    if (obs::Enabled()) {
      obs_.vlog_appended_records->Add(sep.separated_records());
      obs_.vlog_appended_bytes->Add(sep.separated_bytes());
    }
  }
  return Status::OK();
}

Status KVStore::MaterializeValue(const Slice& user_key, std::string* value) {
  if (value->empty()) {
    return Status::Corruption("separated value missing tag byte");
  }
  if ((*value)[0] == vlog::kInlineTag) {
    value->erase(0, 1);
    return Status::OK();
  }
  vlog::ValuePointer ptr;
  if (!vlog::DecodeValuePointer(Slice(*value), &ptr)) {
    return Status::Corruption("malformed value pointer");
  }
  vlog::VlogReader::DerefStats stats;
  std::string out;
  Status s = vlog_reader_->Get(ptr, user_key, &out, &stats);
  counters_.vlog_dereferences.Increment();
  if (obs::Enabled()) {
    obs_.vlog_dereferences->Increment();
    if (stats.cache_hits > 0) {
      obs_.vlog_deref_cache_hits->Add(stats.cache_hits);
    }
    if (stats.cache_misses > 0) {
      obs_.vlog_deref_cache_misses->Add(stats.cache_misses);
    }
  }
  if (!s.ok()) {
    // A rotten record poisons the whole file's trust: quarantine it so no
    // later read trips over it, and surface the error — the cluster layer
    // fails the read over to a healthy replica and repairs from there.
    if (s.IsCorruption()) QuarantineVlogFile(ptr.file_no, s);
    return s;
  }
  *value = std::move(out);
  return Status::OK();
}

Status KVStore::RawGetFrozen(const Slice& user_key, SequenceNumber snapshot,
                             bool* found, std::string* raw_value) {
  // Newest LSM version of `user_key`, tag byte and all — no vlog
  // dereference. Used by GC to decide record liveness. The caller holds
  // mu_ plus write_mu_ with no leader active, so the memtables can be read
  // without re-locking.
  *found = false;
  std::string value;
  Status s;
  if (mem_->Get(user_key, snapshot, &value, &s) ||
      (imm_ != nullptr && imm_->Get(user_key, snapshot, &value, &s))) {
    if (s.IsNotFound()) return Status::OK();  // newest version: tombstone
    IOTDB_RETURN_NOT_OK(s);
    *found = true;
    *raw_value = std::move(value);
    return Status::OK();
  }
  GetState state;
  state.icmp = &icmp_;
  state.user_key = user_key;
  state.snapshot = snapshot;
  std::string lookup_key = MakeLookupKey(user_key, snapshot);
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) {
      if (!FileOverlapsRange(icmp_, *f, user_key, user_key)) continue;
      IOTDB_RETURN_NOT_OK(f->table->InternalGet(
          ReadOptions(), Slice(lookup_key), &state, GetHandler));
    }
  }
  if (state.found && !state.is_deletion) {
    *found = true;
    *raw_value = std::move(state.value);
  }
  return Status::OK();
}

bool KVStore::IsVlogLiveLocked(uint64_t number) const {
  for (const auto& vf : vlog_files_) {
    if (vf.number == number) return true;
  }
  std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
  return vlog_writer_ != nullptr && vlog_writer_->file_no() == number;
}

bool KVStore::IsLiveVlogFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& vf : vlog_files_) {
    if (VlogName(vf.number) == path) return true;
  }
  std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
  return vlog_writer_ != nullptr && VlogName(vlog_writer_->file_no()) == path;
}

bool KVStore::NeedsVlogGcLocked() const {
  if (!options_.value_separation || !options_.background_vlog_gc) {
    return false;
  }
  if (vlog_gc_running_ || vlog_files_.empty()) return false;
  const vlog::VlogFileInfo& tail = vlog_files_.front();
  if (tail.size == 0) return false;
  return static_cast<double>(tail.dead_bytes) /
             static_cast<double>(tail.size) >=
         options_.vlog_gc_dead_ratio;
}

Status KVStore::GarbageCollect(uint64_t chunk_size,
                               uint64_t* reclaimed_bytes) {
  if (reclaimed_bytes != nullptr) *reclaimed_bytes = 0;
  if (!options_.value_separation) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  while (vlog_gc_running_) {
    background_work_finished_cv_.wait(lock);
  }
  return GarbageCollectLocked(&lock, chunk_size, reclaimed_bytes);
}

Status KVStore::GarbageCollectLocked(std::unique_lock<std::mutex>* lock,
                                     uint64_t chunk_size,
                                     uint64_t* reclaimed_bytes) {
  vlog_gc_running_ = true;
  struct Running {  // clears the flag on every exit path
    KVStore* store;
    ~Running() {
      store->vlog_gc_running_ = false;
      store->background_work_finished_cv_.notify_all();
    }
  } running{this};

  obs::TraceSpan gc_span("storage.vlog.gc", nullptr, options_.clock);
  uint64_t processed = 0;
  uint64_t reclaimed_total = 0;
  uint64_t scanned_total = 0;
  uint64_t rewritten = 0;
  // One pass covers at most the files sealed when it started. GC re-puts
  // land in the active vlog, which may roll and seal *new* files mid-pass;
  // chasing those (all-live by construction) would never terminate.
  const uint64_t pass_limit =
      vlog_files_.empty() ? 0 : vlog_files_.back().number;
  Status status;
  while (status.ok() && !vlog_files_.empty() && !shutting_down_) {
    if (chunk_size > 0 && processed >= chunk_size) break;
    vlog::VlogFileInfo tail = vlog_files_.front();
    if (tail.number > pass_limit) break;

    lock->unlock();
    // The tail file is sealed (immutable): scan it without the lock.
    std::vector<vlog::GcRecord> records;
    uint64_t file_scanned = 0;
    Status scan = vlog::ScanFileForGc(env_, dbname_, tail.number, tail.size,
                                      &records, &file_scanned);
    lock->lock();

    scanned_total += file_scanned;
    if (!scan.ok()) {
      // Records past the damage may still be live: quarantine (keeps the
      // bytes for forensics and replica repair) rather than delete.
      IOTDB_LOG(Error) << "vlog GC scan of file " << tail.number
                       << " failed: " << scan.ToString();
      if (scan.IsCorruption()) {
        QuarantineVlogFileLocked(tail.number, scan);
      }
      status = scan;
      break;
    }
    // The set may have changed while unlocked (concurrent quarantine).
    if (vlog_files_.empty() || vlog_files_.front().number != tail.number) {
      continue;
    }

    {
      // The liveness check reads the memtables and the re-put batch must
      // commit against the exact state it checked: hold the write queue,
      // with any in-flight leader waited out, for the duration.
      std::unique_lock<std::mutex> write_lock(write_mu_);
      write_cv_.wait(write_lock, [this] { return !leader_active_; });
      WriteBatch rebatch;
      uint64_t live_bytes = 0;
      {
        std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
        if (vlog_writer_ == nullptr) {
          status = OpenVlogWriterVlogHeld();
        }
        if (status.ok()) {
          // No commit is in flight, so the published prefix is every
          // committed entry.
          const SequenceNumber read_snapshot = VisibleSequence();
          for (const auto& rec : records) {
            // Live iff the newest LSM version of the key is exactly this
            // pointer; overwritten and deleted keys fail the comparison.
            std::string expect;
            vlog::EncodeValuePointer(&expect, rec.ptr);
            bool found = false;
            std::string raw;
            status =
                RawGetFrozen(Slice(rec.key), read_snapshot, &found, &raw);
            if (!status.ok()) break;
            if (!found || raw != expect) continue;  // dead record
            vlog::ValuePointer fresh;
            status =
                vlog_writer_->Add(Slice(rec.key), Slice(rec.value), &fresh);
            if (!status.ok()) break;
            std::string stored;
            vlog::EncodeValuePointer(&stored, fresh);
            rebatch.Put(Slice(rec.key), Slice(stored));
            live_bytes += rec.ptr.size;
          }
          if (status.ok() && rebatch.Count() > 0) {
            // Vlog bytes durable before any WAL record that references
            // them.
            status = vlog_writer_->Sync();
          }
        }
      }
      if (!status.ok()) break;

      if (rebatch.Count() > 0) {
        // Commit the re-puts like a write: WAL record, then the memtable.
        const uint64_t count = rebatch.Count();
        const SequenceNumber first_seq = VisibleSequence() + 1;
        rebatch.SetSequence(first_seq);
        status = log_->AddRecord(rebatch.Contents());
        if (status.ok()) status = log_file_->Sync();
        if (status.ok()) status = rebatch.InsertInto(mem_);
        // Publish even on failure: the sequences are burned either way.
        visible_seq_.store(first_seq + count - 1, std::memory_order_release);
        if (!status.ok()) break;
        rewritten += count;
      }

      processed += tail.size;
      reclaimed_total += tail.size - live_bytes;
    }

    // Retire the tail. Physical deletion waits for readers that may still
    // dereference the superseded pointers.
    vlog_files_.erase(vlog_files_.begin());
    for (auto it = pending_vlog_scrub_.begin();
         it != pending_vlog_scrub_.end();) {
      it = (*it == tail.number) ? pending_vlog_scrub_.erase(it) : it + 1;
    }
    vlog_pending_delete_.push_back(tail.number);
    vlog_reader_->Evict(tail.number);
    MaybeDeleteVlogFilesLocked();

    Status roll = MaybeRollVlogLocked();
    if (!roll.ok()) {
      IOTDB_LOG(Error) << "vlog roll during GC failed: " << roll.ToString();
    }
    status = WriteManifest();
  }

  counters_.vlog_gc_reclaimed_bytes.Add(reclaimed_total);
  if (obs::Enabled()) {
    obs_.vlog_gc_passes->Increment();
    obs_.vlog_gc_scanned_bytes->Add(scanned_total);
    obs_.vlog_gc_reclaimed_bytes->Add(reclaimed_total);
    obs_.vlog_gc_rewritten_records->Add(rewritten);
  }
  gc_span.SetArg("scanned_bytes", scanned_total);
  gc_span.SetArg("reclaimed_bytes", reclaimed_total);
  gc_span.Stop();
  if (reclaimed_bytes != nullptr) *reclaimed_bytes = reclaimed_total;
  return status;
}

void KVStore::QuarantineVlogFile(uint64_t number, const Status& cause) {
  std::lock_guard<std::mutex> lock(mu_);
  QuarantineVlogFileLocked(number, cause);
}

void KVStore::QuarantineVlogFileLocked(uint64_t number, const Status& cause) {
  {
    std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
    if (vlog_writer_ != nullptr && vlog_writer_->file_no() == number) {
      // Seal first so no leader appends to a path that quarantine just
      // renamed away (vlog_mu_ excludes appends for this scope). Sync is
      // best effort — the file is being retired anyway.
      vlog_writer_->Sync().ok();
      vlog_files_.push_back(
          vlog::VlogFileInfo{number, vlog_writer_->offset(), 0});
      vlog_writer_.reset();
      Status reopen = OpenVlogWriterVlogHeld();
      if (!reopen.ok()) {
        // The next leader's commit retries the reopen.
        IOTDB_LOG(Error) << "vlog reopen after quarantine failed: "
                         << reopen.ToString();
      }
    }
  }
  bool was_live = false;
  for (auto it = vlog_files_.begin(); it != vlog_files_.end(); ++it) {
    if (it->number == number) {
      vlog_files_.erase(it);
      was_live = true;
      break;
    }
  }
  if (!was_live) return;  // already quarantined or reclaimed
  for (auto it = pending_vlog_scrub_.begin();
       it != pending_vlog_scrub_.end();) {
    it = (*it == number) ? pending_vlog_scrub_.erase(it) : it + 1;
  }
  vlog_reader_->Evict(number);
  QuarantinePath(VlogName(number), cause);
  WriteManifest().ok();  // quarantine must survive a restart; best effort
}

void KVStore::VerifyVlogFiles(std::unique_lock<std::mutex>* lock,
                              ScrubReport* report) {
  // Snapshot the sealed set plus the active file's flushed prefix; the
  // walk itself runs without the lock (readers and writers proceed, new
  // appends land past each file's recorded limit).
  struct Target {
    uint64_t number;
    uint64_t limit;
  };
  std::vector<Target> targets;
  for (const auto& vf : vlog_files_) {
    targets.push_back({vf.number, vf.size});
  }
  {
    std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
    if (vlog_writer_ != nullptr && vlog_writer_->offset() > 0) {
      if (vlog_writer_->Flush().ok()) {
        targets.push_back({vlog_writer_->file_no(), vlog_writer_->offset()});
      }
    }
  }

  lock->unlock();
  std::vector<std::pair<Target, Status>> corrupt;
  for (const auto& t : targets) {
    uint64_t bytes = 0;
    Status s = vlog_reader_->VerifyFile(t.number, t.limit, &bytes);
    report->files_checked++;
    report->bytes_checked += bytes;
    RecordVlogScrub(bytes, !s.ok());
    if (!s.ok()) {
      report->corrupt_files++;
      report->corrupt_paths.push_back(VlogName(t.number));
      corrupt.emplace_back(t, s);
    }
  }
  lock->lock();

  for (const auto& [target, cause] : corrupt) {
    if (!IsVlogLiveLocked(target.number)) continue;  // raced GC/quarantine
    QuarantineVlogFileLocked(target.number, cause);
    report->quarantined_files++;
  }
}

Status KVStore::ScrubOneVlogQueued(std::unique_lock<std::mutex>* lock) {
  uint64_t number = 0;
  uint64_t limit = 0;
  bool found = false;
  while (!found && !pending_vlog_scrub_.empty()) {
    number = pending_vlog_scrub_.front();
    pending_vlog_scrub_.pop_front();
    for (const auto& vf : vlog_files_) {
      if (vf.number == number) {
        limit = vf.size;
        found = true;
        break;
      }
    }
  }
  if (!found) return Status::OK();  // reclaimed or quarantined meanwhile

  lock->unlock();
  obs::TraceSpan scrub_span("storage.scrub.file", nullptr, options_.clock);
  uint64_t bytes = 0;
  Status s = vlog_reader_->VerifyFile(number, limit, &bytes);
  scrub_span.SetArg("bytes", bytes);
  scrub_span.Stop();
  lock->lock();

  RecordVlogScrub(bytes, !s.ok());
  if (!s.ok() && IsVlogLiveLocked(number)) {
    QuarantineVlogFileLocked(number, s);
  }
  return Status::OK();  // a corrupt finding is healed, not a background error
}

void KVStore::RecordVlogScrub(uint64_t bytes, bool corrupt) {
  counters_.scrubbed_files.Increment();
  if (obs::Enabled()) {
    obs_.scrub_files_checked->Increment();
    obs_.scrub_bytes_checked->Add(bytes);
    if (corrupt) obs_.scrub_corruption_detected->Increment();
  }
}

void KVStore::MaybeDeleteVlogFilesLocked() {
  if (vlog_pending_delete_.empty()) return;
  if (open_readers_ > 0 || !snapshots_.empty()) return;
  for (uint64_t number : vlog_pending_delete_) {
    if (vlog_reader_ != nullptr) vlog_reader_->Evict(number);
    env_->RemoveFile(VlogName(number)).ok();
  }
  vlog_pending_delete_.clear();
}

void KVStore::OnIteratorClosed() {
  std::lock_guard<std::mutex> lock(mu_);
  open_readers_--;
  MaybeDeleteVlogFilesLocked();
}

}  // namespace storage
}  // namespace iotdb
