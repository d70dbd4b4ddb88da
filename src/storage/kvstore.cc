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
#include "storage/vlog_writer.h"

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
                  std::vector<std::shared_ptr<FileMeta>> tables,
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
  void Seek(const Slice& target) override { inner_->Seek(target); }
  void Next() override { inner_->Next(); }
  Slice key() const override { return inner_->key(); }
  Slice value() const override { return inner_->value(); }
  Status status() const override { return inner_->status(); }

 private:
  std::unique_ptr<Iterator> inner_;
  std::vector<std::shared_ptr<FileMeta>> tables_;
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
  // One thread: background_scheduled_ admits one BackgroundCall at a time.
  background_pool_ = std::make_unique<ThreadPool>(1);

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
  obs_.vlog_gc_passes = registry.GetCounter("storage.vlog.gc_passes");
  obs_.vlog_gc_scanned_bytes =
      registry.GetCounter("storage.vlog.gc_scanned_bytes");
  obs_.vlog_gc_reclaimed_bytes =
      registry.GetCounter("storage.vlog.gc_reclaimed_bytes");
  obs_.vlog_gc_rewritten_records =
      registry.GetCounter("storage.vlog.gc_rewritten_records");
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
  vlog_reader_ = std::make_unique<vlog::VlogReader>(env_, dbname_);

  mem_ = new MemTable(icmp_);
  mem_->Ref();

  // Replay every WAL not yet represented by flushed tables, oldest first:
  // one WAL chain, so file order is commit order. New files number past
  // every file on disk, including the outputs of a flush or compaction
  // that crashed before its manifest write (RemoveObsoleteFiles below
  // deletes those).
  IOTDB_ASSIGN_OR_RETURN(auto files, env_->ListDir(dbname_));
  std::vector<uint64_t> logs;
  uint64_t max_file_number = next_file_number_.load(std::memory_order_relaxed);
  for (const std::string& f : files) {
    uint64_t number;
    std::string suffix;
    if (!ParseFileName(f, &number, &suffix)) continue;
    max_file_number = std::max(max_file_number, number + 1);
    if (suffix == "log" && number >= log_number_) logs.push_back(number);
  }
  next_file_number_.store(max_file_number, std::memory_order_relaxed);
  std::sort(logs.begin(), logs.end());

  uint64_t dropped_bytes = 0;
  SequenceNumber max_sequence = visible_seq_.load(std::memory_order_relaxed);
  for (uint64_t number : logs) {
    IOTDB_RETURN_NOT_OK(ReplayLogFile(number, &dropped_bytes, &max_sequence));
  }
  visible_seq_.store(max_sequence, std::memory_order_release);
  if (dropped_bytes > 0) {
    // Recovery skipped damaged regions rather than dropping them silently;
    // the counter lets the FDR warn per node.
    counters_.wal_recovery_dropped_bytes.Add(dropped_bytes);
    obs_.wal_recovery_dropped_bytes->Add(dropped_bytes);
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
                              SequenceNumber* max_sequence) {
  const std::string path = LogFileName(number);
  IOTDB_ASSIGN_OR_RETURN(auto file, env_->NewSequentialFile(path));
  LogCorruptionReporter reporter;
  log::Reader reader(file.get(), &reporter, /*checksum=*/true, path);
  Slice record;
  std::string scratch;
  while (reader.ReadRecord(&record, &scratch)) {
    if (record.size() < 12) continue;
    IOTDB_RETURN_NOT_OK(ReplayBatch(record, max_sequence));
  }
  *dropped_bytes += reporter.dropped_bytes;
  return Status::OK();
}

Status KVStore::ReplayBatch(const Slice& contents,
                            SequenceNumber* max_sequence) {
  WriteBatch batch;
  IOTDB_RETURN_NOT_OK(WriteBatch::SetContents(&batch, contents));
  IOTDB_RETURN_NOT_OK(batch.InsertInto(mem_));
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
                                     TableFileName(number)));
  auto fm = std::make_shared<FileMeta>();
  fm->number = number;
  fm->file_size = size;
  fm->table = std::shared_ptr<Table>(std::move(table));
  // Recompute both bounds from the file. Reading the first and last data
  // blocks checksums them, so a table whose edge blocks rotted fails to open.
  auto iter = fm->table->NewIterator();
  iter->SeekToFirst();
  IOTDB_RETURN_NOT_OK(iter->status());
  if (iter->Valid()) {
    fm->smallest = iter->key().ToString();
    IOTDB_ASSIGN_OR_RETURN(fm->largest, fm->table->ReadLastKey());
  }
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
  obs_.quarantine_files->Increment();
  obs_.quarantine_bytes->Add(size);
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

void KVStore::RecordScrub(uint64_t bytes, bool corrupt) {
  counters_.scrubbed_files.Increment();
  obs_.scrub_files_checked->Increment();
  obs_.scrub_bytes_checked->Add(bytes);
  if (corrupt) obs_.scrub_corruption_detected->Increment();
}

std::vector<std::shared_ptr<FileMeta>> KVStore::LiveTablesLocked() const {
  std::vector<std::shared_ptr<FileMeta>> files;
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) files.push_back(f);
  }
  return files;
}

void KVStore::QuarantineCorruptTables(
    std::unique_lock<std::mutex>* lock,
    const std::vector<std::shared_ptr<FileMeta>>& files,
    ScrubReport* report) {
  lock->unlock();
  // Tables are immutable: verify without the lock so reads and writes
  // proceed while the scrub walks checksums.
  std::vector<std::pair<std::shared_ptr<FileMeta>, Status>> corrupt;
  for (const auto& f : files) {
    uint64_t bytes = 0;
    Status s = f->table->VerifyIntegrity(&bytes);
    report->files_checked++;
    report->bytes_checked += bytes;
    RecordScrub(bytes, !s.ok());
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
      obs_.scrub_bytes_checked->Add(wal_size.ValueOrDie());
    }
  }
  QuarantineCorruptTables(&lock, LiveTablesLocked(), rep);
  VerifyVlogFiles(&lock, rep);
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

  RecordScrub(bytes, !s.ok());
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
      const uint64_t t0 = options_.clock->NowMicros();
      status = log_->AddRecord(updates->Contents());
      const uint64_t t1 = options_.clock->NowMicros();
      if (status.ok() && w.sync) {
        status = log_file_->Sync();
      } else if (status.ok()) {
        status = log_file_->Flush();
      }
      // One commit, two sinks, zero extra clock reads: the histograms get
      // the append/sync split, the trace ring the whole span.
      const uint64_t wal_end = options_.clock->NowMicros();
      obs_.wal_append_micros->Record(t1 - t0);
      obs_.wal_sync_micros->Record(wal_end - t1);
      obs_.group_commit_kvps->Record(static_cast<uint64_t>(batch_count));
      obs::AddStageMicros(obs::Stage::kWalSync, wal_end - t0);
      group_commit_ts = t0;
      if (tracing) {
        // Link the group commit into the leader op's trace (when it has
        // one); queued followers are flow-linked in the handoff loop below.
        obs::TraceBuffer::Record("storage.wal.group_commit", t0,
                                 wal_end - t0,
                                 w.ctx.valid() ? w.ctx.Child()
                                               : obs::TraceContext());
      }
      if (status.ok()) {
        status = updates->InsertInto(mem_);
      }
      // Publish even when the commit failed: the WAL may hold part of the
      // record, so its sequences must never be handed out again.
      visible_seq_.store(last_seq, std::memory_order_release);
      if (bc != nullptr) {
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
        obs_.puts->Add(static_cast<uint64_t>(batch_count));
      }
    }
    if (updates == &tmp_batch_) tmp_batch_.Clear();
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

  // Scheduling the flush of a switched-out memtable needs mu_, which is
  // never taken while write_mu_ is held.
  if (switched) {
    std::lock_guard<std::mutex> store_lock(mu_);
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
    obs_.write_stalls->Increment();
    obs_.write_stall_micros->Add(stalled);
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
  // After a hard error the store takes no more writes; retrying the failed
  // flush would only spin and leave its outputs behind each time.
  if (!BackgroundErrorSnapshot().ok()) return;
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
        QuarantineCorruptTables(&lock, LiveTablesLocked(), &report);
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
  // The immutable memtable cannot change; write its outputs without the
  // lock.
  std::shared_ptr<FileMeta> meta;
  std::vector<vlog::VlogFileInfo> vlog_outputs;
  uint64_t vlog_records = 0;
  Status s = BuildFlushOutputs(imm, file_number, &vlog_outputs, &vlog_records,
                               &meta);
  uint64_t vlog_bytes = 0;
  for (const auto& vf : vlog_outputs) vlog_bytes += vf.size;
  if (meta != nullptr) flush_span.SetArg("bytes", meta->file_size);
  flush_span.SetArg("vlog_bytes", vlog_bytes);
  flush_span.Stop();
  lock->lock();

  // A failed flush leaves what it wrote as orphans: no manifest names
  // them, and RemoveObsoleteFiles deletes them.
  if (!s.ok()) return s;
  if (meta != nullptr) {
    // Newest L0 file goes first.
    levels_.files[0].insert(levels_.files[0].begin(), meta);
    SyncL0CountLocked();
    counters_.memtable_flushes.Increment();
    counters_.bytes_flushed.Add(meta->file_size);
    obs_.memtable_flushes->Increment();
    obs_.bytes_flushed->Add(meta->file_size);
    if (options_.background_scrub) pending_scrub_.push_back(meta->number);
  }
  for (const auto& vf : vlog_outputs) {
    vlog_files_.push_back(vf);
    if (options_.background_scrub) pending_vlog_scrub_.push_back(vf.number);
  }
  counters_.vlog_appended_bytes.Add(vlog_bytes);
  obs_.vlog_appended_bytes->Add(vlog_bytes);
  obs_.vlog_appended_records->Add(vlog_records);
  // Advance the WAL threshold only now that the table is installed in the
  // version set: a manifest written by any mu_ holder sees either the old
  // threshold (and keeps the flushed records' WAL) or the new one plus the
  // table and its vlog files.
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

Status KVStore::BuildFlushOutputs(MemTable* imm, uint64_t table_number,
                                  std::vector<vlog::VlogFileInfo>* vlog_outputs,
                                  uint64_t* vlog_records,
                                  std::shared_ptr<FileMeta>* meta) {
  IOTDB_ASSIGN_OR_RETURN(auto file,
                         env_->NewWritableFile(TableFileName(table_number)));
  Options table_options = options_;
  table_options.comparator = &icmp_;
  TableBuilder builder(table_options, file.get());

  // Large values go to vlog files of this flush in key order, so the rows
  // a scan reads together lie together. Each file is synced as it is
  // finished, before the table is: no installed pointer outlives its record.
  std::unique_ptr<vlog::VlogWriter> vlog_writer;
  auto finish_vlog = [&]() -> Status {
    if (vlog_writer == nullptr) return Status::OK();
    Status vs = vlog_writer->Finish();
    if (vs.ok()) {
      vlog_outputs->push_back(
          vlog::VlogFileInfo{vlog_writer->file_no(), vlog_writer->offset(), 0});
    }
    vlog_writer.reset();
    return vs;
  };

  Status s;
  std::string pointer_key;
  std::string pointer;
  auto iter = imm->NewIterator();
  for (iter->SeekToFirst(); s.ok() && iter->Valid(); iter->Next()) {
    const Slice key = iter->key();
    const Slice value = iter->value();
    ParsedInternalKey ikey;
    if (value.size() < options_.min_value_size ||
        !ParseInternalKey(key, &ikey) || ikey.type != ValueType::kValue) {
      builder.Add(key, value);
      continue;
    }
    if (vlog_writer != nullptr &&
        vlog_writer->offset() >= options_.vlog_file_size) {
      s = finish_vlog();
      if (!s.ok()) break;
    }
    if (vlog_writer == nullptr) {
      const uint64_t number =
          next_file_number_.fetch_add(1, std::memory_order_relaxed);
      auto vlog_file = env_->NewWritableFile(VlogName(number));
      if (!vlog_file.ok()) {
        s = vlog_file.status();
        break;
      }
      vlog_writer = std::make_unique<vlog::VlogWriter>(
          std::move(vlog_file).MoveValueUnsafe(), number);
    }
    vlog::ValuePointer ptr;
    s = vlog_writer->Add(ikey.user_key, value, &ptr);
    if (!s.ok()) break;
    ++*vlog_records;
    pointer_key.assign(ikey.user_key.data(), ikey.user_key.size());
    PutFixed64(&pointer_key, PackSequenceAndType(ikey.sequence,
                                                 ValueType::kValuePointer));
    pointer.clear();
    vlog::EncodeValuePointer(&pointer, ptr);
    builder.Add(Slice(pointer_key), Slice(pointer));
  }
  if (s.ok()) s = finish_vlog();
  if (!s.ok() || builder.NumEntries() == 0) {
    builder.Abandon();
    file->Close();
    if (s.ok()) env_->RemoveFile(TableFileName(table_number)).ok();
    return s;
  }
  s = builder.Finish();
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  if (s.ok()) s = OpenTable(table_number, meta);
  return s;
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
    obs_.compactions->Increment();
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
      children.push_back(f->table->NewIterator());
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
        } else if (newest_of_key && ikey.type != ValueType::kDeletion &&
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
        vlog::ValuePointer ptr;
        if (ikey.type == ValueType::kValuePointer &&
            vlog::DecodeValuePointer(merged->value(), &ptr)) {
          vlog_dead[ptr.file_no] += ptr.size;
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
    obs_.compaction_bytes_written->Add(out->file_size);
    if (options_.background_scrub) pending_scrub_.push_back(out->number);
  }
  SyncL0CountLocked();
  counters_.compactions.Increment();
  counters_.bytes_compacted.Add(bytes_read);
  obs_.compactions->Increment();
  obs_.compaction_bytes_read->Add(bytes_read);
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
  ValueType type = ValueType::kDeletion;
  std::string value;  // stored: a kValuePointer entry's is the pointer
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
  state->type = parsed.type;
  if (parsed.type != ValueType::kDeletion) state->value.assign(v.data(), v.size());
}

}  // namespace

/// Resolves the pointer entries of one read (an iterator or a Get) through a
/// VlogCursor and holds the read's pin: GC defers deleting the vlog files
/// it reclaims until no resolver that could still read them is left. Its
/// owner counts it in open_readers_, under mu_ and before the read takes
/// its snapshot: GC holds mu_ from its re-puts to its deletions, so a file
/// it deletes before the pin was superseded at or below that snapshot.
class KVStore::VlogResolver final : public ValueResolver {
 public:
  explicit VlogResolver(KVStore* store)
      : store_(store), cursor_(store->vlog_reader_.get()) {}

  ~VlogResolver() override {
    store_->counters_.vlog_dereferences.Add(derefs_);
    store_->obs_.vlog_dereferences->Add(derefs_);
    store_->OnIteratorClosed();
  }

  Status Resolve(const Slice& user_key, const Slice& pointer,
                 Slice* value) override {
    vlog::ValuePointer ptr;
    if (!vlog::DecodeValuePointer(pointer, &ptr)) {
      return Status::Corruption("malformed value pointer");
    }
    ++derefs_;
    Status s = cursor_.Read(ptr, user_key, value);
    if (s.IsCorruption()) {
      // A rotten record poisons the whole file's trust: quarantine it so no
      // later read trips over it. The cluster layer fails the read over to
      // a healthy replica and repairs from there.
      store_->QuarantineVlogFile(ptr.file_no, s);
    }
    return s;
  }

 private:
  KVStore* const store_;
  vlog::VlogCursor cursor_;
  uint64_t derefs_ = 0;
};

Result<std::string> KVStore::Get(const ReadOptions&, const Slice& key) {
  MemTable* mem;
  MemTable* imm;
  std::vector<std::shared_ptr<FileMeta>> candidates;
  counters_.gets.Increment();
  obs_.gets->Increment();
  // Counted in open_readers_ right below; nothing returns before that.
  VlogResolver resolver(this);
  SequenceNumber snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_readers_++;
    // Snapshot before pinning any source: the visible prefix only grows,
    // so a memtable pinned afterwards holds every entry <= snapshot it ever
    // will (entries published later carry larger sequences and filter
    // out), and a table collected after the memtables holds whatever they
    // lost to a flush meanwhile.
    snapshot = VisibleSequence();
    {
      std::lock_guard<std::mutex> write_lock(write_mu_);
      mem = mem_;
      mem->Ref();
      imm = imm_;
      if (imm != nullptr) imm->Ref();
    }
    for (int level = 0; level < kNumLevels; ++level) {
      for (const auto& f : levels_.files[level]) {
        if (FileOverlapsRange(icmp_, *f, key, key)) {
          candidates.push_back(f);
        }
      }
    }
  }

  // Memtables hold full values only: a flush separates them.
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
  if (done) return result;

  GetState state;
  state.icmp = &icmp_;
  state.user_key = key;
  state.snapshot = snapshot;
  std::string lookup_key = MakeLookupKey(key, snapshot);
  for (const auto& f : candidates) {
    Status ts = f->table->InternalGet(Slice(lookup_key), &state, GetHandler);
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
  if (!state.found || state.type == ValueType::kDeletion) {
    return Status::NotFound("key not found");
  }
  if (state.type == ValueType::kValuePointer) {
    Slice resolved;
    IOTDB_RETURN_NOT_OK(resolver.Resolve(key, Slice(state.value), &resolved));
    return resolved.ToString();
  }
  return std::move(state.value);
}

std::unique_ptr<Iterator> KVStore::NewBoundedIterator(
    const Slice& start, const Slice& end_exclusive,
    std::vector<std::shared_ptr<FileMeta>>* opened) {
  std::vector<std::unique_ptr<Iterator>> children;
  std::vector<std::shared_ptr<FileMeta>> pinned_tables;
  std::vector<MemTable*> pinned_mems;
  SequenceNumber snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Pin, then snapshot, then sources (see Get for the ordering argument).
    open_readers_++;  // released by the resolver
    snapshot = VisibleSequence();
    // Newest sources first so the merger prefers them on ties.
    {
      std::lock_guard<std::mutex> write_lock(write_mu_);
      children.push_back(mem_->NewIterator());
      mem_->Ref();
      pinned_mems.push_back(mem_);
      if (imm_ != nullptr) {
        children.push_back(imm_->NewIterator());
        imm_->Ref();
        pinned_mems.push_back(imm_);
      }
    }
    // A table with no user key in [start, end_exclusive] holds no row,
    // tombstone or older version the bounded walk could meet, so it is
    // never opened.
    for (int level = 0; level < kNumLevels; ++level) {
      for (const auto& f : levels_.files[level]) {
        if (!FileOverlapsRange(icmp_, *f, start, end_exclusive)) continue;
        children.push_back(f->table->NewIterator());
        pinned_tables.push_back(f);
      }
    }
  }
  if (opened != nullptr) *opened = pinned_tables;
  auto db_iter = NewDBIterator(
      &icmp_, NewMergingIterator(&icmp_, std::move(children)), snapshot,
      std::make_unique<VlogResolver>(this), end_exclusive);
  return std::make_unique<PinningIterator>(
      std::move(db_iter), std::move(pinned_tables), std::move(pinned_mems));
}

std::unique_ptr<Iterator> KVStore::NewIterator(const ReadOptions&) {
  return NewBoundedIterator(Slice(), Slice(), nullptr);
}

Status KVStore::Scan(const Slice& start, const Slice& end_exclusive,
                     size_t limit, RowSink* sink) {
  counters_.scans.Increment();
  obs_.scans->Increment();
  std::vector<std::shared_ptr<FileMeta>> opened;
  // The iterator stops before end_exclusive.
  auto iter = NewBoundedIterator(start, end_exclusive, &opened);
  size_t rows = 0;
  for (start.empty() ? iter->SeekToFirst() : iter->Seek(start);
       iter->Valid(); iter->Next()) {
    sink->Add(iter->key(), iter->value());
    if (limit > 0 && ++rows >= limit) break;
  }
  Status s = iter->status();
  iter.reset();  // its destructor may take mu_
  if (s.IsCorruption()) {
    // As in Get, evict the damaged table so it never serves another read.
    // The merged status does not say which table failed, so verify every
    // one the scan opened, as the scrub does. (A record that failed its
    // checks already quarantined its vlog file.)
    ScrubReport report;
    std::unique_lock<std::mutex> lock(mu_);
    QuarantineCorruptTables(&lock, opened, &report);
  }
  return s;
}

Status KVStore::Scan(const ReadOptions&, const Slice& start,
                     const Slice& end_exclusive, size_t limit,
                     std::vector<std::pair<std::string, std::string>>* out) {
  VectorRowSink sink(out);
  return Scan(start, end_exclusive, limit, &sink);
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
  // After a hard error the imm never drains (see MaybeScheduleBackgroundWork).
  while (background_scheduled_ ||
         (has_imm_.load(std::memory_order_acquire) &&
          BackgroundErrorSnapshot().ok())) {
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
  {
    // The level file lists and vlog set still need the store mutex.
    std::lock_guard<std::mutex> lock(mu_);
    for (int level = 0; level < kNumLevels; ++level) {
      stats.num_files[level] = static_cast<int>(levels_.NumFiles(level));
      stats.level_bytes[level] = levels_.LevelBytes(level);
    }
    stats.vlog_files = vlog_files_.size();
    for (const auto& vf : vlog_files_) stats.vlog_dead_bytes += vf.dead_bytes;
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

Status KVStore::RawGetFrozen(const Slice& user_key, SequenceNumber snapshot,
                             bool* found, ValueType* type,
                             std::string* raw_value) {
  // The caller holds mu_ plus write_mu_ with no leader active, so the
  // memtables can be read without re-locking.
  *found = false;
  std::string value;
  Status s;
  if (mem_->Get(user_key, snapshot, &value, &s) ||
      (imm_ != nullptr && imm_->Get(user_key, snapshot, &value, &s))) {
    if (s.IsNotFound()) return Status::OK();  // newest version: tombstone
    IOTDB_RETURN_NOT_OK(s);
    *found = true;
    *type = ValueType::kValue;
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
      IOTDB_RETURN_NOT_OK(
          f->table->InternalGet(Slice(lookup_key), &state, GetHandler));
    }
  }
  if (state.found && state.type != ValueType::kDeletion) {
    *found = true;
    *type = state.type;
    *raw_value = std::move(state.value);
  }
  return Status::OK();
}

bool KVStore::IsVlogLiveLocked(uint64_t number) const {
  for (const auto& vf : vlog_files_) {
    if (vf.number == number) return true;
  }
  return false;
}

bool KVStore::IsLiveVlogFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& vf : vlog_files_) {
    if (VlogName(vf.number) == path) return true;
  }
  return false;
}

bool KVStore::NeedsVlogGcLocked() const {
  if (!options_.background_vlog_gc) return false;
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
  // One pass covers at most the files installed when it started: the
  // flushes of its own re-puts install newer ones.
  const uint64_t pass_limit =
      vlog_files_.empty() ? 0 : vlog_files_.back().number;
  Status status;
  while (status.ok() && !vlog_files_.empty() && !shutting_down_) {
    if (chunk_size > 0 && processed >= chunk_size) break;
    vlog::VlogFileInfo tail = vlog_files_.front();
    if (tail.number > pass_limit) break;

    lock->unlock();
    // Installed vlog files are immutable: scan the tail without the lock.
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
      // No commit is in flight, so the published prefix is every committed
      // entry.
      const SequenceNumber read_snapshot = VisibleSequence();
      for (const auto& rec : records) {
        // Live iff the newest version of the key is exactly this pointer;
        // overwritten and deleted keys fail the comparison, and so does a
        // key whose newest version is a memtable's full value.
        bool found = false;
        ValueType type = ValueType::kDeletion;
        std::string raw;
        status = RawGetFrozen(Slice(rec.key), read_snapshot, &found, &type,
                              &raw);
        if (!status.ok()) break;
        vlog::ValuePointer newest;
        if (!found || type != ValueType::kValuePointer ||
            !vlog::DecodeValuePointer(Slice(raw), &newest) ||
            !(newest == rec.ptr)) {
          continue;  // dead record
        }
        // An ordinary full-value write: the next flush separates it again.
        rebatch.Put(Slice(rec.key), Slice(rec.value));
        live_bytes += rec.ptr.size;
      }
      if (!status.ok()) break;

      if (rebatch.Count() > 0) {
        // Commit the re-puts like a write: WAL record, then the memtable.
        // Synced, because the file they replace is dropped below.
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
    status = WriteManifest();
  }

  counters_.vlog_gc_reclaimed_bytes.Add(reclaimed_total);
  obs_.vlog_gc_passes->Increment();
  obs_.vlog_gc_scanned_bytes->Add(scanned_total);
  obs_.vlog_gc_reclaimed_bytes->Add(reclaimed_total);
  obs_.vlog_gc_rewritten_records->Add(rewritten);
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
  // Snapshot the installed set; the walk itself runs without the lock
  // (installed files never change, so readers and writers proceed).
  struct Target {
    uint64_t number;
    uint64_t limit;
  };
  std::vector<Target> targets;
  for (const auto& vf : vlog_files_) {
    targets.push_back({vf.number, vf.size});
  }

  lock->unlock();
  std::vector<std::pair<Target, Status>> corrupt;
  for (const auto& t : targets) {
    uint64_t bytes = 0;
    Status s = vlog_reader_->VerifyFile(t.number, t.limit, &bytes);
    report->files_checked++;
    report->bytes_checked += bytes;
    RecordScrub(bytes, !s.ok());
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

  RecordScrub(bytes, !s.ok());
  if (!s.ok() && IsVlogLiveLocked(number)) {
    QuarantineVlogFileLocked(number, s);
  }
  return Status::OK();  // a corrupt finding is healed, not a background error
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
