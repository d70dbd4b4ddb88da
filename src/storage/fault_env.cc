#include "storage/fault_env.h"

#include <algorithm>
#include <utility>

namespace iotdb {
namespace storage {

FileClass ClassifyFile(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  auto ends_with = [&name](const char* suffix) {
    size_t n = std::string(suffix).size();
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with(".log")) return FileClass::kWal;
  if (ends_with(".sst")) return FileClass::kSSTable;
  if (ends_with(".vlog")) return FileClass::kVlog;
  if (name.compare(0, 8, "MANIFEST") == 0) return FileClass::kManifest;
  return FileClass::kOther;
}

const char* FileClassName(FileClass file_class) {
  switch (file_class) {
    case FileClass::kWal:
      return "wal";
    case FileClass::kSSTable:
      return "sstable";
    case FileClass::kManifest:
      return "manifest";
    case FileClass::kVlog:
      return "vlog";
    case FileClass::kOther:
      return "other";
  }
  return "unknown";
}

namespace {

bool HasPrefix(const std::string& path, const std::string& prefix) {
  return prefix.empty() ||
         (path.size() >= prefix.size() &&
          path.compare(0, prefix.size(), prefix) == 0);
}

}  // namespace

// ---------------------------------------------------------------------------
// File wrappers
// ---------------------------------------------------------------------------

class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(FaultInjectionEnv* env, std::string path,
                    std::unique_ptr<WritableFile> target)
      : env_(env),
        path_(std::move(path)),
        file_class_(ClassifyFile(path_)),
        target_(std::move(target)) {}

  Status Append(const Slice& data) override {
    IOTDB_RETURN_NOT_OK(env_->CheckAlive(path_));
    IOTDB_RETURN_NOT_OK(
        env_->MaybeInject(FaultInjectionEnv::Op::kAppend, file_class_, path_));
    IOTDB_RETURN_NOT_OK(target_->Append(data));
    pos_ += data.size();
    return Status::OK();
  }

  Status Flush() override {
    IOTDB_RETURN_NOT_OK(env_->CheckAlive(path_));
    return target_->Flush();
  }

  Status Sync() override {
    IOTDB_RETURN_NOT_OK(env_->CheckAlive(path_));
    IOTDB_RETURN_NOT_OK(
        env_->MaybeInject(FaultInjectionEnv::Op::kSync, file_class_, path_));
    IOTDB_RETURN_NOT_OK(target_->Sync());
    env_->OnSync(path_, pos_);
    return Status::OK();
  }

  Status Close() override { return target_->Close(); }

 private:
  FaultInjectionEnv* const env_;
  const std::string path_;
  const FileClass file_class_;
  std::unique_ptr<WritableFile> target_;
  uint64_t pos_ = 0;  // bytes appended through this handle
};

class FaultRandomAccessFile final : public RandomAccessFile {
 public:
  FaultRandomAccessFile(FaultInjectionEnv* env, std::string path,
                        std::unique_ptr<RandomAccessFile> target)
      : env_(env),
        path_(std::move(path)),
        file_class_(ClassifyFile(path_)),
        target_(std::move(target)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    IOTDB_RETURN_NOT_OK(env_->CheckAlive(path_));
    IOTDB_RETURN_NOT_OK(
        env_->MaybeInject(FaultInjectionEnv::Op::kRead, file_class_, path_));
    return target_->Read(offset, n, result, scratch);
  }

  uint64_t Size() const override { return target_->Size(); }

 private:
  FaultInjectionEnv* const env_;
  const std::string path_;
  const FileClass file_class_;
  std::unique_ptr<RandomAccessFile> target_;
};

class FaultSequentialFile final : public SequentialFile {
 public:
  FaultSequentialFile(FaultInjectionEnv* env, std::string path,
                      std::unique_ptr<SequentialFile> target)
      : env_(env),
        path_(std::move(path)),
        file_class_(ClassifyFile(path_)),
        target_(std::move(target)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    IOTDB_RETURN_NOT_OK(env_->CheckAlive(path_));
    IOTDB_RETURN_NOT_OK(
        env_->MaybeInject(FaultInjectionEnv::Op::kRead, file_class_, path_));
    return target_->Read(n, result, scratch);
  }

  Status Skip(uint64_t n) override { return target_->Skip(n); }

 private:
  FaultInjectionEnv* const env_;
  const std::string path_;
  const FileClass file_class_;
  std::unique_ptr<SequentialFile> target_;
};

// ---------------------------------------------------------------------------
// FaultInjectionEnv
// ---------------------------------------------------------------------------

FaultInjectionEnv::FaultInjectionEnv(Env* target, uint64_t seed)
    : target_(target), rng_(seed == 0 ? 0xfa17ull : seed) {}

FaultInjectionEnv::~FaultInjectionEnv() = default;

void FaultInjectionEnv::SetRates(FileClass file_class,
                                 const FaultRates& rates) {
  std::lock_guard<std::mutex> lock(mu_);
  rates_[static_cast<int>(file_class)] = rates;
  injection_enabled_ = true;
}

void FaultInjectionEnv::SetInjectionEnabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  injection_enabled_ = enabled;
}

void FaultInjectionEnv::SetTornTailProbability(double p) {
  std::lock_guard<std::mutex> lock(mu_);
  torn_tail_probability_ = p;
}

Status FaultInjectionEnv::MaybeInject(Op op, FileClass file_class,
                                      const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!injection_enabled_) return Status::OK();
  const FaultRates& rates = rates_[static_cast<int>(file_class)];
  double rate = 0;
  switch (op) {
    case Op::kAppend:
      rate = rates.append_error;
      break;
    case Op::kSync:
      rate = rates.sync_error;
      break;
    case Op::kRead:
      rate = rates.read_error;
      break;
  }
  if (rate <= 0 || rng_.NextDouble() >= rate) return Status::OK();
  const char* what = "";
  switch (op) {
    case Op::kAppend:
      counters_.append_errors++;
      what = "append";
      break;
    case Op::kSync:
      counters_.sync_errors++;
      what = "sync";
      break;
    case Op::kRead:
      counters_.read_errors++;
      what = "read";
      break;
  }
  return Status::IOError(path + ": injected " + std::string(what) +
                         " fault (" + FileClassName(file_class) + ")");
}

bool FaultInjectionEnv::IsCrashed(const std::string& path) const {
  for (const std::string& prefix : crashed_prefixes_) {
    if (HasPrefix(path, prefix)) return true;
  }
  return false;
}

Status FaultInjectionEnv::CheckAlive(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (IsCrashed(path)) {
    return Status::IOError(path + ": simulated process crash");
  }
  return Status::OK();
}

void FaultInjectionEnv::OnSync(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  FileState& state = files_[path];
  state.synced_size = std::max(state.synced_size, size);
  state.ever_synced = true;
}

void FaultInjectionEnv::OnRemove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(path);
}

void FaultInjectionEnv::MarkCrashed(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_prefixes_.push_back(prefix);
}

void FaultInjectionEnv::ClearCrashed(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_prefixes_.erase(
      std::remove(crashed_prefixes_.begin(), crashed_prefixes_.end(), prefix),
      crashed_prefixes_.end());
}

Status FaultInjectionEnv::Crash(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.crashes++;

  std::vector<std::string> dropped;
  for (auto& [path, state] : files_) {
    if (!HasPrefix(path, prefix)) continue;

    auto size_result = target_->FileSize(path);
    if (!size_result.ok()) {
      // Already gone underneath us (e.g. obsolete-file cleanup raced the
      // crash); nothing to lose.
      dropped.push_back(path);
      continue;
    }
    uint64_t full_size = size_result.ValueOrDie();

    if (!state.ever_synced) {
      IOTDB_RETURN_NOT_OK(target_->RemoveFile(path));
      counters_.files_dropped++;
      counters_.bytes_dropped += full_size;
      dropped.push_back(path);
      continue;
    }
    if (full_size <= state.synced_size) continue;  // nothing unsynced

    uint64_t keep = state.synced_size;
    FileClass cls = ClassifyFile(path);
    if ((cls == FileClass::kWal || cls == FileClass::kVlog) &&
        rng_.NextDouble() < torn_tail_probability_) {
      // Torn tail: a random prefix of the unsynced region made it to disk,
      // ending mid-record. Recovery must detect the damage via checksums —
      // for a WAL via the log reader, for a vlog by sealing only the valid
      // record prefix and dropping WAL pointers into the torn region.
      uint64_t extra = rng_.Uniform(full_size - state.synced_size);
      if (extra > 0) {
        keep += extra;
        counters_.torn_tails++;
      }
    }

    std::string contents;
    IOTDB_RETURN_NOT_OK(target_->ReadFileToString(path, &contents));
    contents.resize(static_cast<size_t>(keep));
    IOTDB_RETURN_NOT_OK(target_->WriteStringToFile(path, Slice(contents)));
    counters_.files_truncated++;
    counters_.bytes_dropped += full_size - keep;
    state.synced_size = keep;  // the survivor is fully durable now
    state.ever_synced = true;
  }
  for (const std::string& path : dropped) files_.erase(path);
  return Status::OK();
}

Status FaultInjectionEnv::CorruptFile(const std::string& path, int bits) {
  std::lock_guard<std::mutex> lock(mu_);
  if (IsCrashed(path)) {
    return Status::IOError(path + ": simulated process crash");
  }
  IOTDB_ASSIGN_OR_RETURN(uint64_t size, target_->FileSize(path));
  if (size == 0) {
    return Status::InvalidArgument(path + ": cannot bit-rot an empty file");
  }
  for (int i = 0; i < bits; ++i) {
    uint64_t offset = rng_.Uniform(size);
    int bit = static_cast<int>(rng_.Uniform(8));
    char scratch[1];
    // Read the current byte through a positional handle so no other state
    // of the file is disturbed, then patch it back with one bit flipped.
    IOTDB_ASSIGN_OR_RETURN(auto file, target_->NewRandomAccessFile(path));
    Slice byte;
    IOTDB_RETURN_NOT_OK(file->Read(offset, 1, &byte, scratch));
    if (byte.size() != 1) {
      return Status::IOError(path + ": short read during bit-rot injection");
    }
    char rotted = static_cast<char>(byte.data()[0] ^ (1 << bit));
    IOTDB_RETURN_NOT_OK(
        target_->OverwriteFileRange(path, offset, Slice(&rotted, 1)));
    counters_.bits_flipped++;
  }
  if (bits > 0) counters_.files_corrupted++;
  return Status::OK();
}

Result<std::string> FaultInjectionEnv::CorruptRandomFile(
    const std::string& dir, FileClass file_class, int bits,
    const std::function<bool(const std::string&)>& eligible) {
  std::vector<std::string> candidates;
  {
    IOTDB_ASSIGN_OR_RETURN(auto names, target_->ListDir(dir));
    std::sort(names.begin(), names.end());  // determinism across Env impls
    for (const std::string& name : names) {
      if (ClassifyFile(name) != file_class) continue;
      std::string path = dir + "/" + name;
      if (eligible && !eligible(path)) continue;
      candidates.push_back(std::move(path));
    }
  }
  if (candidates.empty()) {
    return Status::NotFound(dir + ": no live " +
                            std::string(FileClassName(file_class)) +
                            " file to corrupt");
  }
  std::string victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    victim = candidates[rng_.Uniform(candidates.size())];
  }
  IOTDB_RETURN_NOT_OK(CorruptFile(victim, bits));
  return victim;
}

FaultCounters FaultInjectionEnv::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void FaultInjectionEnv::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_ = FaultCounters();
}

// ---------------------------------------------------------------------------
// Env interface
// ---------------------------------------------------------------------------

Result<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewWritableFile(
    const std::string& path) {
  IOTDB_RETURN_NOT_OK(CheckAlive(path));
  IOTDB_ASSIGN_OR_RETURN(auto file, target_->NewWritableFile(path));
  {
    std::lock_guard<std::mutex> lock(mu_);
    files_[path] = FileState();  // created empty, nothing durable yet
  }
  return std::unique_ptr<WritableFile>(
      new FaultWritableFile(this, path, std::move(file)));
}

Result<std::unique_ptr<RandomAccessFile>>
FaultInjectionEnv::NewRandomAccessFile(const std::string& path) {
  IOTDB_RETURN_NOT_OK(CheckAlive(path));
  IOTDB_ASSIGN_OR_RETURN(auto file, target_->NewRandomAccessFile(path));
  return std::unique_ptr<RandomAccessFile>(
      new FaultRandomAccessFile(this, path, std::move(file)));
}

Result<std::unique_ptr<SequentialFile>> FaultInjectionEnv::NewSequentialFile(
    const std::string& path) {
  IOTDB_RETURN_NOT_OK(CheckAlive(path));
  IOTDB_ASSIGN_OR_RETURN(auto file, target_->NewSequentialFile(path));
  return std::unique_ptr<SequentialFile>(
      new FaultSequentialFile(this, path, std::move(file)));
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return target_->FileExists(path);
}

Result<std::vector<std::string>> FaultInjectionEnv::ListDir(
    const std::string& dir) {
  return target_->ListDir(dir);
}

Status FaultInjectionEnv::CreateDir(const std::string& dir) {
  IOTDB_RETURN_NOT_OK(CheckAlive(dir));
  return target_->CreateDir(dir);
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  IOTDB_RETURN_NOT_OK(CheckAlive(path));
  IOTDB_RETURN_NOT_OK(target_->RemoveFile(path));
  OnRemove(path);
  return Status::OK();
}

Result<uint64_t> FaultInjectionEnv::FileSize(const std::string& path) {
  return target_->FileSize(path);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  IOTDB_RETURN_NOT_OK(CheckAlive(from));
  IOTDB_RETURN_NOT_OK(CheckAlive(to));
  IOTDB_RETURN_NOT_OK(target_->RenameFile(from, to));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it != files_.end()) {
    files_[to] = it->second;
    files_.erase(it);
  }
  return Status::OK();
}

Status FaultInjectionEnv::OverwriteFileRange(const std::string& path,
                                             uint64_t offset,
                                             const Slice& data) {
  IOTDB_RETURN_NOT_OK(CheckAlive(path));
  return target_->OverwriteFileRange(path, offset, data);
}

}  // namespace storage
}  // namespace iotdb
