#include "storage/kvstore.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cinttypes>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

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

bool FromHex(std::string_view hex, std::string* out) {
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

/// The manifest format WriteManifest writes and LoadManifest reads. Version
/// 2 added each table's vlog links; a version-1 manifest read as tables
/// linking nothing would retire, and so delete, every vlog file.
constexpr uint64_t kManifestVersion = 2;

/// Parses all of `field` as a decimal number.
bool ParseNumber(std::string_view field, uint64_t* value) {
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

/// The space-separated fields of one manifest line.
std::vector<std::string_view> SplitFields(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t pos = 0;
  while (pos < line.size()) {
    const size_t end = std::min(line.find(' ', pos), line.size());
    if (end > pos) fields.push_back(line.substr(pos, end - pos));
    pos = end + 1;
  }
  return fields;
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
  // A store's write: the group-commit leader numbers it, in place or in
  // the group it joins.
  WriterState(WriteBatch* b, bool s) : batch(b), unnumbered(b), sync(s) {}
  // A region's write: committed alone and unchanged, at the sequence it
  // carries.
  WriterState(const WriteBatch& b, bool s) : batch(&b), sync(s) {}
  bool sequenced() const { return unnumbered == nullptr; }
  const WriteBatch* const batch;
  WriteBatch* const unnumbered = nullptr;  // `batch`, when not sequenced
  const bool sync;
  bool done = false;
  bool applied = false;  // a sequenced batch: committed, not already held
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
  obs_.install_bytes = registry.GetCounter("storage.install.bytes");
}

KVStore::~KVStore() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
    while (background_scheduled_) {
      background_work_finished_cv_.wait(lock);
    }
  }
  if (background_pool_ != nullptr) background_pool_->Shutdown();
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
  // One thread: background_scheduled_ admits one BackgroundCall at a time.
  store->background_pool_ = std::make_unique<ThreadPool>(1);
  IOTDB_RETURN_NOT_OK(store->Recover());
  std::lock_guard<std::mutex> lock(store->mu_);
  store->MaybeScheduleBackgroundWork();
  return store;
}

Result<std::unique_ptr<KVStore>> KVStore::OpenRegion(const Options& options,
                                                     const std::string& name,
                                                     RegionRole role,
                                                     RegionShipper* shipper) {
  auto store = std::unique_ptr<KVStore>(new KVStore(options, name));
  store->region_ = true;
  store->role_ = role;
  // A backup runs no background work, so it starts no thread.
  if (role == RegionRole::kLeader) {
    store->background_pool_ = std::make_unique<ThreadPool>(1);
  }
  IOTDB_RETURN_NOT_OK(store->Recover());
  std::lock_guard<std::mutex> lock(store->mu_);
  store->shipper_ = shipper;
  // Files a region opens with may come from another leader than its
  // replicas' files do (a region copy, a restart), under the same numbers:
  // a leader names them all as added in its first ship, and a backup
  // copies the whole version on its first install.
  std::vector<uint64_t> files;
  for (const auto& f : store->LiveTablesLocked()) files.push_back(f->number);
  for (const auto& vf : store->vlog_files_) files.push_back(vf.number);
  if (role == RegionRole::kLeader) {
    store->unshipped_added_ = std::move(files);
  } else {
    store->install_full_ = !files.empty();
  }
  store->MaybeScheduleBackgroundWork();
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
  // A backup keeps every log until an install's watermark covers it.
  if (backup()) log_number_ = 0;
  held_ = flushed_held_;

  mem_ = new MemTable(icmp_);
  mem_->Ref();

  // Replay every WAL not yet represented by flushed tables, oldest first:
  // one WAL chain, so file order is commit order. New files number past
  // every file on disk, including the outputs of a flush or compaction
  // that crashed before its manifest write (RemoveObsoleteFiles below
  // deletes those).
  uint64_t max_file_number = next_file_number_.load(std::memory_order_relaxed);
  IOTDB_ASSIGN_OR_RETURN(auto logs, LiveLogNumbers(&max_file_number));
  next_file_number_.store(max_file_number, std::memory_order_relaxed);

  uint64_t dropped_bytes = 0;
  SequenceNumber max_sequence = visible_seq_.load(std::memory_order_relaxed);
  for (uint64_t number : logs) {
    if (backup()) log_last_seq_.emplace(number, 0);
    IOTDB_RETURN_NOT_OK(ReadLogFile(
        number, flushed_held_.Covered(), &dropped_bytes,
        [&](WriteBatch* batch) {
          return ReplayBatch(batch, number, &max_sequence);
        }));
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
  if (backup()) {
    log_last_seq_.emplace(logfile_number_, 0);
  } else if (!keep_logs_) {
    // The replayed entries are flushed below before any manifest records
    // this threshold, so the replayed WALs become deletable.
    log_number_ = logfile_number_;
  }

  {
    std::unique_lock<std::mutex> lock(mu_);
    if (mem_->NumEntries() > 0) {
      {
        std::lock_guard<std::mutex> write_lock(write_mu_);
        imm_held_ = held_;
        imm_ = mem_;
        has_imm_.store(true, std::memory_order_release);
        mem_ = new MemTable(icmp_);
        mem_->Ref();
      }
      IOTDB_RETURN_NOT_OK(FlushImmutable(&lock));
    }
    LevelsChangedLocked();
    IOTDB_RETURN_NOT_OK(WriteManifest());
    RemoveObsoleteFiles();
  }
  return Status::OK();
}

Result<std::vector<uint64_t>> KVStore::LiveLogNumbers(uint64_t* next_file) {
  IOTDB_ASSIGN_OR_RETURN(auto files, env_->ListDir(dbname_));
  std::vector<uint64_t> logs;
  for (const std::string& f : files) {
    uint64_t number;
    std::string suffix;
    if (!ParseFileName(f, &number, &suffix)) continue;
    if (next_file != nullptr) *next_file = std::max(*next_file, number + 1);
    if (suffix == "log" && number >= log_number_) logs.push_back(number);
  }
  std::sort(logs.begin(), logs.end());
  return logs;
}

Status KVStore::ReadLogFile(uint64_t number, SequenceNumber watermark,
                            uint64_t* dropped_bytes,
                            const std::function<Status(WriteBatch*)>& fn,
                            uint64_t* offset) {
  const std::string path = LogFileName(number);
  IOTDB_ASSIGN_OR_RETURN(auto file, env_->NewSequentialFile(path));
  const uint64_t start = offset != nullptr ? *offset : 0;
  IOTDB_RETURN_NOT_OK(file->Skip(start));
  LogCorruptionReporter reporter;
  log::Reader reader(file.get(), &reporter, /*checksum=*/true, path, start);
  Slice record;
  std::string scratch;
  while (reader.ReadRecord(&record, &scratch)) {
    if (record.size() < 12) continue;
    WriteBatch batch;
    IOTDB_RETURN_NOT_OK(WriteBatch::SetContents(&batch, record));
    const int count = batch.Count();
    if (count == 0 || batch.sequence() + count - 1 <= watermark) continue;
    IOTDB_RETURN_NOT_OK(fn(&batch));
  }
  *dropped_bytes += reporter.dropped_bytes;
  if (offset != nullptr) *offset = reader.LastRecordEnd();
  return Status::OK();
}

Status KVStore::ReplayBatch(WriteBatch* batch, uint64_t log_number,
                            SequenceNumber* max_sequence) {
  const SequenceNumber first = batch->sequence();
  const SequenceNumber last = first + batch->Count() - 1;
  *max_sequence = std::max(*max_sequence, last);
  if (region_) {
    if (held_.Overlaps(first, last + 1)) return Status::OK();
    held_.Add(first, last + 1);
    if (backup()) {
      SequenceNumber& file_last = log_last_seq_[log_number];
      file_last = std::max(file_last, last);
      return Status::OK();
    }
  }
  return batch->InsertInto(mem_);
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
  out << "manifest_version " << kManifestVersion << "\n";
  out << "next_file " << next_file_number_.load(std::memory_order_relaxed)
      << "\n";
  out << "last_sequence " << visible_seq_.load(std::memory_order_relaxed)
      << "\n";
  out << "log_number " << log_number_ << "\n";
  if (region_) {
    for (const auto& [first, end] : flushed_held_.ranges()) {
      out << "held " << first << " " << end << "\n";
    }
  }
  for (const auto& vf : vlog_files_) {
    out << "vlog " << vf.number << " " << vf.size << "\n";
  }
  // file <level> <number> <size> <smallest> <largest> <n> <link>...
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) {
      out << "file " << level << " " << f->number << " " << f->file_size
          << " " << ToHex(Slice(f->smallest)) << " "
          << ToHex(Slice(f->largest)) << " " << f->vlog_links.size();
      for (uint64_t link : f->vlog_links) out << " " << link;
      out << "\n";
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

  // Every line must parse whole, or Open fails before it opens or deletes
  // a file: a version cut short at a bad field would name fewer files than
  // are live, and RemoveObsoleteFiles would delete the rest.
  struct TableLine {
    uint64_t level = 0;
    uint64_t number = 0;
    uint64_t size = 0;
    std::string smallest, largest;
    std::vector<uint64_t> links;
  };
  std::vector<TableLine> tables;
  uint64_t version = 0, next_file = 0, last_sequence = 0;
  std::istringstream in(contents);
  std::string line;
  while (std::getline(in, line)) {
    const std::vector<std::string_view> f = SplitFields(line);
    if (f.empty()) continue;
    auto number = [&f](size_t i, uint64_t* value) {
      return i < f.size() && ParseNumber(f[i], value);
    };
    bool ok = false;
    if (f[0] == "manifest_version") {
      ok = f.size() == 2 && number(1, &version);
      if (ok && version != kManifestVersion) {
        return Status::Corruption("manifest version " + std::to_string(version) +
                                  ", expected " +
                                  std::to_string(kManifestVersion));
      }
    } else if (f[0] == "next_file") {
      ok = f.size() == 2 && number(1, &next_file);
    } else if (f[0] == "last_sequence") {
      ok = f.size() == 2 && number(1, &last_sequence);
    } else if (f[0] == "log_number") {
      ok = f.size() == 2 && number(1, &log_number_);
    } else if (f[0] == "held") {
      SequenceNumber first, end;
      ok = f.size() == 3 && number(1, &first) && number(2, &end) &&
           first < end;
      if (ok) flushed_held_.Add(first, end);
    } else if (f[0] == "vlog") {
      vlog::VlogFileInfo vf;
      ok = f.size() == 3 && number(1, &vf.number) && number(2, &vf.size);
      if (ok) vlog_files_.push_back(vf);
    } else if (f[0] == "file") {
      TableLine t;
      uint64_t links = 0;
      ok = number(1, &t.level) && t.level < kNumLevels &&
           number(2, &t.number) && number(3, &t.size) && f.size() > 6 &&
           FromHex(f[4], &t.smallest) && FromHex(f[5], &t.largest) &&
           number(6, &links) && f.size() - 7 == links;
      t.links.resize(ok ? links : 0);
      for (size_t i = 0; ok && i < t.links.size(); ++i) {
        ok = number(7 + i, &t.links[i]);
      }
      if (ok) tables.push_back(std::move(t));
    } else {
      return Status::Corruption("unknown manifest tag: " + std::string(f[0]));
    }
    if (!ok) return Status::Corruption("bad manifest line: " + line);
  }
  if (version == 0) return Status::Corruption("manifest without a version");
  next_file_number_.store(next_file, std::memory_order_relaxed);
  visible_seq_.store(last_sequence, std::memory_order_relaxed);

  for (TableLine& t : tables) {
    std::shared_ptr<FileMeta> meta;
    Status open_status = OpenTable(t.number, &meta);
    if (open_status.IsCorruption()) {
      // Better to come up without the damaged table — the cluster layer
      // re-replicates its keys from healthy peers — than to refuse to
      // open the store at all.
      QuarantinePath(TableFileName(t.number), open_status);
      continue;
    }
    IOTDB_RETURN_NOT_OK(open_status);
    // Trust manifest bounds if the table was empty-scanned (shouldn't
    // happen), otherwise keep recomputed bounds.
    if (meta->smallest.empty()) {
      meta->smallest = std::move(t.smallest);
      meta->largest = std::move(t.largest);
    }
    meta->file_size = t.size;
    meta->vlog_links = std::move(t.links);
    levels_.files[t.level].push_back(std::move(meta));
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
  // Oldest vlog file first, as flushes append them.
  std::sort(vlog_files_.begin(), vlog_files_.end(),
            [](const auto& a, const auto& b) { return a.number < b.number; });
  LevelsChangedLocked();
  *found = true;
  return Status::OK();
}

void KVStore::RemoveObsoleteFiles() {
  MaybeDeleteVlogFilesLocked();
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
      // Live set plus retired files awaiting deferred deletion (an
      // iterator or snapshot may still dereference into them).
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

void KVStore::LevelsChangedLocked() {
  l0_files_.store(levels_.NumFiles(0), std::memory_order_release);
  std::set<uint64_t> linked;
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) {
      linked.insert(f->vlog_links.begin(), f->vlog_links.end());
    }
  }
  // Only live files retire: a quarantined file stays aside while tables
  // still link it.
  std::erase_if(vlog_files_, [&](const vlog::VlogFileInfo& vf) {
    if (linked.count(vf.number) > 0) return false;
    vlog_pending_delete_.push_back(vf.number);
    std::erase(pending_vlog_scrub_, vf.number);
    return true;
  });
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
  if (region_ && !backup()) keep_logs_ = true;
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
  LevelsChangedLocked();
  QuarantinePath(TableFileName(meta->number), cause);
  // The quarantine must survive a restart; best effort. The vlog files only
  // this table linked go once the manifest no longer names them.
  if (WriteManifest().ok()) MaybeDeleteVlogFilesLocked();
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
  if (region_) {
    return Status::NotSupported(
        "a region store commits only at given sequences (WriteAt)");
  }
  WriterState w(batch, options.sync || options_.wal_sync);
  return Commit(w);
}

Status KVStore::Commit(WriterState& w) {
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
    const bool sequenced = w.sequenced();
    // A region's batch is one record at the sequence it carries.
    WriteBatch* group = sequenced ? nullptr : BuildBatchGroup(&last_writer);
    const WriteBatch* updates = sequenced ? w.batch : group;
    const int batch_count = updates->Count();
    // A region drops a batch it holds already (a duplicate delivery or a
    // replayed hint).
    const bool held =
        sequenced && held_.Overlaps(updates->sequence(),
                                    updates->sequence() + batch_count);
    if (batch_count > 0 && !held) {
      // Only the leader numbers groups, so the group continues right after
      // the published prefix.
      if (!sequenced) group->SetSequence(VisibleSequence() + 1);
      const SequenceNumber first_seq = updates->sequence();
      const SequenceNumber last_seq =
          first_seq + static_cast<SequenceNumber>(batch_count) - 1;

      // The WAL append and memtable insert happen outside write_mu_: new
      // writers queue behind last_writer, and only the leader touches the
      // log. leader_active_ keeps memtable switches from pulling the
      // memtable out from under us.
      leader_active_ = true;
      lock.unlock();
      // One commit, two sinks, zero extra clock reads: the histograms get
      // the append/sync split, the trace ring the whole span.
      uint64_t t0 = 0;
      uint64_t wal_end = 0;
      status = AppendLogRecord(*updates, w.sync, &t0, &wal_end);
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
      // record, so its sequences must never be handed out again. A region
      // commits out of order and publishes the largest sequence it holds.
      visible_seq_.store(std::max(VisibleSequence(), last_seq),
                         std::memory_order_release);
      if (bc != nullptr) {
        // Commit wait: memtable insert + sequence publication, the leader
        // work after the WAL hits disk.
        obs::AddStageMicros(obs::Stage::kCommitWait,
                            options_.clock->NowMicros() - wal_end);
      }
      lock.lock();
      if (sequenced && status.ok()) {
        held_.Add(first_seq, last_seq + 1);
        w.applied = true;
      }
      leader_active_ = false;
      write_cv_.notify_all();

      if (status.ok()) {
        counters_.puts.Add(static_cast<uint64_t>(batch_count));
        obs_.puts->Add(static_cast<uint64_t>(batch_count));
      }
    }
    if (group == &tmp_batch_) tmp_batch_.Clear();
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
  WriteBatch* result = first->unnumbered;

  *last_writer = first;
  size_t size = first->batch->ApproximateSize();
  // Small writes get a smaller group limit to keep their latency down.
  size_t max_size = kMaxGroupCommitBytes;
  if (size <= 128 * 1024) {
    max_size = size + 128 * 1024;
  }

  auto iter = writers_.begin();
  ++iter;  // skip first
  for (; iter != writers_.end(); ++iter) {
    WriterState* w = *iter;
    if (w->sync && !first->sync) break;  // don't escalate sync scope
    size += w->batch->ApproximateSize();
    if (size > max_size) break;
    if (result == first->unnumbered) {
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
  if (region_) {
    // What the outgoing memtable and the tables hold: every sequence the
    // region holds, since the leader is idle here.
    imm_held_ = held_;
  }

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
  if (background_pool_ == nullptr) return;  // a backup region
  if (background_scheduled_ || shutting_down_) return;
  // After a hard error the store takes no more writes; retrying the failed
  // flush would only spin and leave its outputs behind each time.
  if (!BackgroundErrorSnapshot().ok()) return;
  if (!has_imm_.load(std::memory_order_acquire) && !NeedsCompaction() &&
      pending_scrub_.empty() && pending_vlog_scrub_.empty()) {
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
  SequenceRanges imm_held;
  {
    std::lock_guard<std::mutex> write_lock(write_mu_);
    imm = imm_;
    imm_held = imm_held_;
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
  if (region_) flushed_held_ = std::move(imm_held);
  flushes_installed_++;
  if (shipper_ != nullptr) {
    if (meta != nullptr) unshipped_added_.push_back(meta->number);
    for (const auto& vf : vlog_outputs) unshipped_added_.push_back(vf.number);
  }
  if (meta != nullptr) {
    // Newest L0 file goes first.
    levels_.files[0].insert(levels_.files[0].begin(), meta);
    LevelsChangedLocked();
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
  if (!keep_logs_) log_number_ = wal_number;
  // The imm is released only once the manifest names its table: a failed
  // write leaves it in place, so FlushMemTable's waiter wakes to the
  // background error this failure sets, never to an empty imm_.
  IOTDB_RETURN_NOT_OK(WriteManifest());
  {
    std::lock_guard<std::mutex> write_lock(write_mu_);
    imm_ = nullptr;
    has_imm_.store(false, std::memory_order_release);
    write_cv_.notify_all();
  }
  imm->Unref();
  RemoveObsoleteFiles();
  ShipLocked(lock);
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
          vlog::VlogFileInfo{vlog_writer->file_no(), vlog_writer->offset()});
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
    vlog::EncodeValuePointer(&pointer, ptr, value);
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
  if (s.ok()) {
    for (const auto& vf : *vlog_outputs) {
      (*meta)->vlog_links.push_back(vf.number);
    }
  }
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
    dst.insert(pos, moved);  // with its links
    LevelsChangedLocked();
    counters_.compactions.Increment();
    obs_.compactions->Increment();
    IOTDB_RETURN_NOT_OK(WriteManifest());
    ShipLocked(lock);
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
    // The vlog files of the pointer entries the current output keeps. The
    // inputs' links would only grow: a file no kept entry points into must
    // leave them, or nothing would ever retire.
    std::vector<uint64_t> out_links;
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
        if (fs.ok()) {
          std::sort(out_links.begin(), out_links.end());
          out_links.erase(std::unique(out_links.begin(), out_links.end()),
                          out_links.end());
          meta->vlog_links = std::move(out_links);
          outputs.push_back(std::move(meta));
        }
      }
      out_links.clear();
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

      if (drop) continue;

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
      vlog::ValuePointer ptr;
      if (has_current_user_key && ikey.type == ValueType::kValuePointer &&
          vlog::DecodeValuePointer(merged->value(), &ptr) &&
          (out_links.empty() || out_links.back() != ptr.file_no)) {
        out_links.push_back(ptr.file_no);
      }
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
    if (shipper_ != nullptr) unshipped_added_.push_back(out->number);
    counters_.bytes_compacted.Add(out->file_size);
    obs_.compaction_bytes_written->Add(out->file_size);
    if (options_.background_scrub) pending_scrub_.push_back(out->number);
  }
  // Retires the vlog files only dropped entries pointed into.
  LevelsChangedLocked();
  counters_.compactions.Increment();
  counters_.bytes_compacted.Add(bytes_read);
  obs_.compactions->Increment();
  obs_.compaction_bytes_read->Add(bytes_read);
  IOTDB_RETURN_NOT_OK(WriteManifest());
  RemoveObsoleteFiles();
  ShipLocked(lock);
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
/// VlogCursor and holds the read's pin: a vlog file that a version change
/// unlinks is deleted only once no resolver that could still read it is
/// left. Its owner counts it in open_readers_, under mu_ and before the
/// read collects its tables: a file retired before the pin is linked by
/// none of them.
///
/// A scan's resolver also holds the scan's sink, and offers it each
/// pointer entry's head before reading the record. A row the sink takes is
/// not read: Resolve marks it, and the scan skips its Add (TakeHeadMark).
class KVStore::VlogResolver final : public ValueResolver {
 public:
  explicit VlogResolver(KVStore* store, RowSink* head_sink = nullptr)
      : store_(store),
        cursor_(store->vlog_reader_.get()),
        head_sink_(head_sink) {}

  ~VlogResolver() override {
    store_->counters_.vlog_dereferences.Add(derefs_);
    store_->obs_.vlog_dereferences->Add(derefs_);
    store_->OnIteratorClosed();
  }

  Status Resolve(const Slice& user_key, const Slice& pointer,
                 Slice* value) override {
    vlog::ValuePointer ptr;
    Slice head;
    if (!vlog::DecodeValuePointer(pointer, &ptr, &head)) {
      return Status::Corruption("malformed value pointer");
    }
    if (head_sink_ != nullptr && !head.empty() &&
        head_sink_->AddHead(user_key, head)) {
      took_head_ = true;
      *value = Slice();
      return Status::OK();
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

  /// True when the sink took the row the iterator last landed on by its
  /// head; clears the mark for the next row.
  bool TakeHeadMark() { return std::exchange(took_head_, false); }

 private:
  KVStore* const store_;
  vlog::VlogCursor cursor_;
  RowSink* const head_sink_;
  bool took_head_ = false;
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
      if (backup()) IndexLogTailLocked();
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
    std::vector<std::shared_ptr<FileMeta>>* opened,
    std::unique_ptr<VlogResolver> resolver) {
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
      if (backup()) IndexLogTailLocked();
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
      std::move(resolver), end_exclusive);
  return std::make_unique<PinningIterator>(
      std::move(db_iter), std::move(pinned_tables), std::move(pinned_mems));
}

std::unique_ptr<Iterator> KVStore::NewIterator(const ReadOptions&) {
  return NewBoundedIterator(Slice(), Slice(), nullptr,
                            std::make_unique<VlogResolver>(this));
}

Status KVStore::Scan(const Slice& start, const Slice& end_exclusive,
                     size_t limit, RowSink* sink) {
  counters_.scans.Increment();
  obs_.scans->Increment();
  std::vector<std::shared_ptr<FileMeta>> opened;
  // The iterator stops before end_exclusive, and resolves (so offers the
  // head of) a row only when it lands on it: no head past the bound or the
  // limit reaches the sink.
  auto resolver = std::make_unique<VlogResolver>(this, sink);
  VlogResolver* const heads = resolver.get();
  auto iter = NewBoundedIterator(start, end_exclusive, &opened,
                                 std::move(resolver));
  size_t rows = 0;
  for (start.empty() ? iter->SeekToFirst() : iter->Seek(start);
       iter->Valid(); iter->Next()) {
    if (!heads->TakeHeadMark()) sink->Add(iter->key(), iter->value());
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
  if (backup()) return Status::OK();  // its leader flushes
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
  {
    // Wait for the background thread to drain the imm.
    std::unique_lock<std::mutex> write_lock(write_mu_);
    while (imm_ != nullptr && BackgroundErrorSnapshot().ok()) {
      write_cv_.wait(write_lock);
    }
  }
  // A leader region returns once its backups were sent the flush.
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t installed = flushes_installed_;
  background_work_finished_cv_.wait(lock, [&] {
    return flushes_shipped_ >= installed || !BackgroundErrorSnapshot().ok();
  });
  return BackgroundErrorSnapshot();
}

Status KVStore::CompactAll() {
  if (backup()) return Status::OK();  // its leader compacts
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
  stats.install_bytes = counters_.install_bytes.Value();
  stats.indexed_batches = counters_.indexed_batches.Value();
  {
    // The level file lists and vlog set still need the store mutex.
    std::lock_guard<std::mutex> lock(mu_);
    for (int level = 0; level < kNumLevels; ++level) {
      stats.num_files[level] = static_cast<int>(levels_.NumFiles(level));
      stats.level_bytes[level] = levels_.LevelBytes(level);
    }
    stats.vlog_files = vlog_files_.size();
    for (const auto& vf : vlog_files_) stats.vlog_bytes += vf.size;
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
  if (!was_live) return;  // already quarantined or retired
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
    if (!IsVlogLiveLocked(target.number)) continue;  // retired/quarantined
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
  if (!found) return Status::OK();  // retired or quarantined meanwhile

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

// ---------------------------------------------------------------------------
// Regions
// ---------------------------------------------------------------------------

Status KVStore::WriteAt(const WriteOptions& options, const WriteBatch& batch,
                        bool* applied) {
  if (applied != nullptr) *applied = false;
  if (!region_) {
    return Status::NotSupported("WriteAt needs a region store (OpenRegion)");
  }
  if (batch.Count() == 0) return Status::OK();
  const bool sync = options.sync || options_.wal_sync;
  if (backup()) return AppendToLog(batch, sync, applied);
  WriterState w(batch, sync);
  Status s = Commit(w);
  if (applied != nullptr) *applied = w.applied;
  return s;
}

Status KVStore::AppendToLog(const WriteBatch& batch, bool sync,
                            bool* applied) {
  const int count = batch.Count();
  const SequenceNumber first = batch.sequence();
  const SequenceNumber last = first + static_cast<SequenceNumber>(count) - 1;
  std::lock_guard<std::mutex> lock(write_mu_);
  if (held_.Overlaps(first, last + 1)) return Status::OK();
  uint64_t start = 0;
  uint64_t end = 0;
  IOTDB_RETURN_NOT_OK(AppendLogRecord(batch, sync, &start, &end));
  held_.Add(first, last + 1);
  if (applied != nullptr) *applied = true;
  SequenceNumber& file_last = log_last_seq_[logfile_number_];
  file_last = std::max(file_last, last);
  visible_seq_.store(std::max(VisibleSequence(), last),
                     std::memory_order_release);
  counters_.puts.Add(static_cast<uint64_t>(count));
  obs_.puts->Add(static_cast<uint64_t>(count));
  return Status::OK();
}

Status KVStore::AppendLogRecord(const WriteBatch& batch, bool sync,
                                uint64_t* start, uint64_t* end) {
  const uint64_t t0 = options_.clock->NowMicros();
  Status s = log_->AddRecord(batch.Contents());
  const uint64_t t1 = options_.clock->NowMicros();
  if (s.ok()) s = sync ? log_file_->Sync() : log_file_->Flush();
  const uint64_t wal_end = options_.clock->NowMicros();
  obs_.wal_append_micros->Record(t1 - t0);
  obs_.wal_sync_micros->Record(wal_end - t1);
  obs_.group_commit_kvps->Record(static_cast<uint64_t>(batch.Count()));
  obs::AddStageMicros(obs::Stage::kWalSync, wal_end - t0);
  *start = t0;
  *end = wal_end;
  return s;
}

void KVStore::IndexLogTailLocked() {
  log_file_->Flush().ok();
  for (auto it = log_last_seq_.lower_bound(indexed_log_);
       it != log_last_seq_.end(); ++it) {
    uint64_t offset = it->first == indexed_log_ ? indexed_offset_ : 0;
    uint64_t dropped = 0;
    // The installed files hold every sequence at or below the watermark.
    Status s = ReadLogFile(it->first, flushed_held_.Covered(), &dropped,
                           [this](WriteBatch* batch) {
                             counters_.indexed_batches.Increment();
                             return batch->InsertInto(mem_);
                           },
                           &offset);
    if (!s.ok()) break;  // the next read resumes here
    indexed_log_ = it->first;
    indexed_offset_ = offset;
  }
}

Status KVStore::CopyFile(const std::string& from, const std::string& to,
                         uint64_t* bytes) {
  // Bytes, not shared chunks: each node's directory stands for its own
  // disk, so rot in one copy must not show in another.
  IOTDB_ASSIGN_OR_RETURN(auto in, env_->NewSequentialFile(from));
  IOTDB_ASSIGN_OR_RETURN(auto out, env_->NewWritableFile(to));
  std::string scratch(kMemEnvChunkSize, '\0');
  for (;;) {
    Slice chunk;
    IOTDB_RETURN_NOT_OK(in->Read(scratch.size(), &chunk, scratch.data()));
    if (chunk.empty()) break;
    IOTDB_RETURN_NOT_OK(out->Append(chunk));
    *bytes += chunk.size();
  }
  IOTDB_RETURN_NOT_OK(out->Sync());
  return out->Close();
}

Status KVStore::Install(const RegionVersion& version, bool full,
                        uint64_t* bad_file) {
  *bad_file = 0;
  if (!backup()) return Status::NotSupported("only a backup installs");
  std::set<uint64_t> added(version.added.begin(), version.added.end());
  std::map<uint64_t, std::shared_ptr<FileMeta>> tables;
  std::set<uint64_t> vlogs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& f : LiveTablesLocked()) tables[f->number] = f;
    for (const auto& vf : vlog_files_) vlogs.insert(vf.number);
    full = full || install_full_;
  }
  auto copied = [&](uint64_t number) {
    return full || added.count(number) > 0;
  };
  // A file the version keeps that this backup never received means it
  // missed an install; trimming past it would lose rows.
  for (const RegionTable& t : version.tables) {
    if (!copied(t.number) && tables.count(t.number) == 0) {
      return Status::Aborted("backup lacks table " +
                                std::to_string(t.number));
    }
  }
  for (const auto& vf : version.vlogs) {
    if (!copied(vf.number) && vlogs.count(vf.number) == 0) {
      return Status::Aborted("backup lacks vlog " +
                                std::to_string(vf.number));
    }
  }

  // 1. Copy, sync and verify each file with the scrub's walk.
  obs::TraceSpan install_span("storage.install", nullptr, options_.clock);
  uint64_t bytes = 0;
  for (const RegionTable& t : version.tables) {
    if (!copied(t.number)) continue;
    char name[32];
    snprintf(name, sizeof(name), "/%08" PRIu64 ".sst", t.number);
    Status s = CopyFile(version.dir + name, TableFileName(t.number), &bytes);
    std::shared_ptr<FileMeta> meta;
    if (s.ok()) s = OpenTable(t.number, &meta);
    uint64_t verified = 0;
    if (s.ok()) s = meta->table->VerifyIntegrity(&verified);
    if (!s.ok()) {
      if (s.IsCorruption()) *bad_file = t.number;
      return s;
    }
    meta->vlog_links = t.vlog_links;
    tables[t.number] = std::move(meta);
  }
  for (const auto& vf : version.vlogs) {
    if (!copied(vf.number)) continue;
    Status s = CopyFile(vlog::VlogFileName(version.dir, vf.number),
                        VlogName(vf.number), &bytes);
    vlog_reader_->Evict(vf.number);
    uint64_t verified = 0;
    if (s.ok()) s = vlog_reader_->VerifyFile(vf.number, vf.size, &verified);
    if (!s.ok()) {
      if (s.IsCorruption()) *bad_file = vf.number;
      return s;
    }
  }
  install_span.SetArg("bytes", bytes);
  counters_.install_bytes.Add(bytes);
  obs_.install_bytes->Add(bytes);

  // 2. Write the manifest naming the leader's version.
  std::lock_guard<std::mutex> lock(mu_);
  LevelState next;
  for (const RegionTable& t : version.tables) {
    next.files[t.level].push_back(tables[t.number]);
  }
  levels_ = std::move(next);
  // A vlog file the version dropped retires as one a compaction here
  // unlinks would: it goes once no reader can still read it. A number the
  // version names again was copied anew above and is live.
  auto named = [&](uint64_t number) {
    return std::any_of(version.vlogs.begin(), version.vlogs.end(),
                       [&](const auto& vf) { return vf.number == number; });
  };
  for (const auto& vf : vlog_files_) {
    if (!named(vf.number)) vlog_pending_delete_.push_back(vf.number);
  }
  std::erase_if(vlog_pending_delete_, named);
  vlog_files_ = version.vlogs;
  LevelsChangedLocked();
  const bool advanced = version.held.Covered() > flushed_held_.Covered();
  flushed_held_ = version.held;
  IOTDB_RETURN_NOT_OK(WriteManifest());
  install_full_ = false;

  // 3. Drop the log files the files now cover. The memtable goes too; the
  // next read indexes what is left of the logs. A compaction moves no
  // watermark, and leaves the logs alone.
  if (advanced) {
    std::lock_guard<std::mutex> write_lock(write_mu_);
    held_.Merge(version.held);
    const uint64_t number =
        next_file_number_.fetch_add(1, std::memory_order_relaxed);
    IOTDB_ASSIGN_OR_RETURN(auto file,
                           env_->NewWritableFile(LogFileName(number)));
    log_file_->Close();
    log_file_ = std::move(file);
    log_ = std::make_unique<log::Writer>(log_file_.get());
    logfile_number_ = number;
    log_last_seq_.emplace(number, 0);
    const SequenceNumber watermark = flushed_held_.Covered();
    for (auto it = log_last_seq_.begin(); it != log_last_seq_.end();) {
      if (it->first != logfile_number_ && it->second <= watermark) {
        env_->RemoveFile(LogFileName(it->first)).ok();
        it = log_last_seq_.erase(it);
      } else {
        ++it;
      }
    }
    mem_->Unref();
    mem_ = new MemTable(icmp_);
    mem_->Ref();
    indexed_log_ = 0;
    indexed_offset_ = 0;
  }
  RemoveObsoleteFiles();
  return Status::OK();
}

Status KVStore::CopyTo(const std::string& dest, uint64_t* kvps) {
  std::unique_lock<std::mutex> lock(mu_);
  std::unique_lock<std::mutex> write_lock(write_mu_);
  write_cv_.wait(write_lock, [this] { return !leader_active_; });
  *kvps = 0;
  for (const auto& [first, end] : held_.ranges()) *kvps += end - first;
  IOTDB_RETURN_NOT_OK(log_file_->Flush());
  IOTDB_RETURN_NOT_OK(env_->CreateDir(dest));
  IOTDB_RETURN_NOT_OK(WriteManifest());
  std::vector<std::string> names = {"MANIFEST"};
  for (const auto& f : LiveTablesLocked()) {
    names.push_back(TableFileName(f->number).substr(dbname_.size() + 1));
  }
  for (const auto& vf : vlog_files_) {
    names.push_back(VlogName(vf.number).substr(dbname_.size() + 1));
  }
  IOTDB_ASSIGN_OR_RETURN(auto logs, LiveLogNumbers());
  for (uint64_t number : logs) {
    names.push_back(LogFileName(number).substr(dbname_.size() + 1));
  }
  uint64_t bytes = 0;
  for (const std::string& name : names) {
    IOTDB_RETURN_NOT_OK(
        CopyFile(dbname_ + "/" + name, dest + "/" + name, &bytes));
  }
  return Status::OK();
}

Status KVStore::LoggedBatches(std::vector<WriteBatch>* out) {
  std::unique_lock<std::mutex> lock(mu_);
  std::unique_lock<std::mutex> write_lock(write_mu_);
  write_cv_.wait(write_lock, [this] { return !leader_active_; });
  IOTDB_RETURN_NOT_OK(log_file_->Flush());
  IOTDB_ASSIGN_OR_RETURN(auto logs, LiveLogNumbers());
  uint64_t dropped = 0;
  for (uint64_t number : logs) {
    IOTDB_RETURN_NOT_OK(
        ReadLogFile(number, /*watermark=*/0, &dropped, [out](WriteBatch* b) {
          out->push_back(std::move(*b));
          return Status::OK();
        }));
  }
  return Status::OK();
}

void KVStore::ShipLocked(std::unique_lock<std::mutex>* lock) {
  if (shipper_ == nullptr) {
    flushes_shipped_ = flushes_installed_;
    return;
  }
  RegionVersion version;
  version.dir = dbname_;
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) {
      version.tables.push_back({level, f->number, f->vlog_links});
    }
  }
  version.vlogs = vlog_files_;
  version.added.swap(unshipped_added_);
  version.held = flushed_held_;
  const uint64_t installed = flushes_installed_;
  lock->unlock();
  const uint64_t bad_file = shipper_->Ship(version);
  lock->lock();
  flushes_shipped_ = installed;
  background_work_finished_cv_.notify_all();
  // Rot in a copy came from this store's own file: quarantine it here, so
  // it reaches no replica that must heal it.
  if (bad_file != 0) ScrubFileLocked(lock, bad_file);
}

void KVStore::ScrubFileLocked(std::unique_lock<std::mutex>* lock,
                              uint64_t number) {
  if (IsVlogLiveLocked(number)) {
    pending_vlog_scrub_.push_front(number);
    ScrubOneVlogQueued(lock).ok();
    return;
  }
  for (const auto& f : LiveTablesLocked()) {
    if (f->number == number) {
      ScrubReport report;
      QuarantineCorruptTables(lock, {f}, &report);
      return;
    }
  }
}

}  // namespace storage
}  // namespace iotdb
